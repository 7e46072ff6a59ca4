(* Incremental co-materialization: redundant copies of hot table versions,
   maintained per-write through delta rules, must stay byte-identical to
   full regeneration, reads through them must answer exactly like the plain
   delta code, and the bugs the feature flushed out (stale view-cache hits,
   advisor division by zero, fallback stacks ignoring an intermediate copy)
   must stay fixed. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module A = Inverda.Advisor

(* --- smoke: one copy, writes through every version -------------------------- *)

let test_smoke () =
  let t = Scenarios.Tasky.setup_full ~tasks:6 () in
  I.comat_add t "TasKy2.Task";
  let copies = I.comat_list t in
  Alcotest.(check int) "one copy" 1 (List.length copies);
  (* writes entering at every co-existing version keep the copy exact *)
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ann', 'smoke-a', 1)");
  ignore
    (I.exec_sql t
       "INSERT INTO \"Do!.Todo\" (author, task) VALUES ('Bob', 'smoke-b')");
  ignore (I.exec_sql t "UPDATE TasKy2.Task SET prio = 7 WHERE task = 'smoke-a'");
  ignore (I.exec_sql t "DELETE FROM TasKy.Task WHERE task = 'task-1'");
  I.comat_check t;
  Alcotest.(check int) "reads at the copied version see the writes" 1
    (I.query_int t
       "SELECT COUNT(*) FROM TasKy2.Task WHERE task = 'smoke-a' AND prio = 7");
  let cm = List.hd (I.comat_list t) in
  Alcotest.(check bool) "maintenance was accounted" true (cm.G.cm_writes > 0);
  (* dropping the copy falls back to the regular delta code, same answers *)
  let with_copy =
    I.query_rows t "SELECT * FROM TasKy2.Task" |> List.sort compare
  in
  I.comat_drop t "TasKy2.Task";
  Alcotest.(check bool) "no copies left" true (I.comat_list t = []);
  Alcotest.(check bool) "plain delta code agrees" true
    (with_copy = (I.query_rows t "SELECT * FROM TasKy2.Task" |> List.sort compare))

let test_add_guards () =
  let t = Scenarios.Tasky.setup_full ~tasks:3 () in
  I.comat_add t "TasKy2.Task";
  (match I.comat_add t "TasKy2.Task" with
  | exception Inverda.Comat.Comat_error _ -> ()
  | () -> Alcotest.fail "double comat_add accepted");
  match I.comat_add t "TasKy.Task" with
  | exception Inverda.Comat.Comat_error _ -> ()
  | () -> Alcotest.fail "copy of a physical table version accepted"

(* --- regression: view cache vs delta-rule maintenance (satellite 1) ---------- *)

let test_no_stale_cache_after_maintenance () =
  let t = Scenarios.Tasky.setup_full ~tasks:8 () in
  I.comat_add t "TasKy2.Task";
  let read () =
    I.query_rows t "SELECT author, task FROM TasKy2.Task" |> List.sort compare
  in
  let before = read () in
  ignore (read ());
  let h, _ = I.cache_stats t in
  Alcotest.(check bool) "reads through the copy are cached" true (h > 0);
  (* write through ANOTHER version: the copy is updated by the delta-rule
     maintenance path, not by the propagation triggers — it must bump the
     same per-table epochs the cache keys on, so a stale hit is impossible *)
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Eve', 'cache-bust', 2)");
  let after = read () in
  Alcotest.(check int) "re-read sees the maintained row"
    (List.length before + 1)
    (List.length after);
  Alcotest.(check int) "exactly the written row" 1
    (I.query_int t "SELECT COUNT(*) FROM TasKy2.Task WHERE task = 'cache-bust'");
  I.comat_check t

(* --- regression: advisor on an all-zero profile (satellite 2) ---------------- *)

let test_advisor_zero_profile () =
  let t = Scenarios.Tasky.setup_full ~tasks:4 () in
  let cur = I.current_materialization t in
  let conservative = function
    | None -> Alcotest.fail "advise returned no recommendation"
    | Some (r : A.recommendation) ->
      Alcotest.(check (list int)) "keeps the current materialization" cur
        r.A.materialization;
      Alcotest.(check bool) "no arbitrary tie-break alternatives" true
        (r.A.alternatives = [])
  in
  (* no observed traffic at all, and explicit all-zero weights: neither may
     divide by zero or recommend migrating off the only materialization *)
  conservative (I.advise t []);
  conservative (I.advise t [ ("TasKy", 0.0); ("TasKy2", 0.0); ("Do!", 0.0) ]);
  Alcotest.(check bool) "no copies advised for an empty profile" true
    (I.advise_comat t [] = []);
  Alcotest.(check bool) "no copies advised for a zero profile" true
    (I.advise_comat t [ ("TasKy2", 0.0) ] = []);
  (* sanity: a real profile still produces a full scored ranking *)
  match I.advise t [ ("TasKy2", 1.0) ] with
  | Some r -> Alcotest.(check bool) "non-degenerate" true (r.A.alternatives <> [])
  | None -> Alcotest.fail "real profile got no recommendation"

let test_advise_comat_budget () =
  let t = Scenarios.Tasky.setup_full ~tasks:10 () in
  let profile = [ ("TasKy2", 0.7); ("Do!", 0.3) ] in
  let unlimited = I.advise_comat t profile in
  Alcotest.(check bool) "copies recommended for remote hot versions" true
    (unlimited <> []);
  List.iter
    (fun (c : A.comat_recommendation) ->
      Alcotest.(check bool)
        (Fmt.str "%s has positive benefit" c.A.cr_target)
        true (c.A.cr_benefit > 0.0))
    unlimited;
  I.set_comat_budget t 1;
  let tight = I.advise_comat t profile in
  Alcotest.(check bool) "row budget caps the packing" true
    (List.length tight < List.length unlimited
    || List.fold_left (fun a c -> a + c.A.cr_rows) 0 tight <= 1);
  I.set_comat_budget t 0;
  (* comat_auto applies what it advises *)
  let applied = I.comat_auto t in
  Alcotest.(check bool) "auto applied nothing (no observed traffic)" true
    (applied = [] && I.comat_list t = [])

(* --- regression: fallback stacks re-anchor at a copy (satellite 3) ----------- *)

let test_fallback_reanchors_at_copy () =
  (* versions=12 makes the deep page chain a long layered stack. A copy at
     an intermediate version must truncate that stack — the far view's base
     closure re-anchors at the copy table instead of walking every hop back
     to the physical root. *)
  let t, names = Scenarios.Wikimedia.build ~versions:12 () in
  let gen = I.genealogy t in
  let page_tv v =
    let sv =
      List.find (fun (sv : G.schema_version) -> sv.G.sv_name = v) gen.G.versions
    in
    List.assoc "page" sv.G.sv_tables
  in
  let last = names.(Array.length names - 1) in
  let far = G.tv_name (G.tv gen (page_tv last)) in
  let closure name = Inverda.Viewcache.closure (I.genealogy t) name in
  let is_copy b = String.length b > 3 && String.sub b 0 3 = "cm!" in
  Alcotest.(check bool) "no copy in the stack yet" true
    (not (List.exists is_copy (closure far)));
  (* pick the deepest intermediate version whose page copy anchors the far
     stack *)
  let candidates =
    List.rev
      (List.filteri
         (fun i _ -> i > 0 && i < Array.length names - 1)
         (Array.to_list names))
  in
  let anchored =
    List.find_opt
      (fun v ->
        let tvid = page_tv v in
        if G.is_physical gen (G.tv gen tvid) then false
        else begin
          I.comat_add t (v ^ ".page");
          let cm = Inverda.Naming.comat_table ~id:tvid ~table:"page" in
          if List.mem cm (closure far) then true
          else begin
            I.comat_drop t (v ^ ".page");
            false
          end
        end)
      candidates
  in
  (match anchored with
  | None -> Alcotest.fail "no intermediate copy anchored the fallback stack"
  | Some v ->
    (* behavior: writes at the chain's root flow through the copy into the
       fallback views, stay exact, and dropping the copy changes nothing
       observable *)
    Scenarios.Wikimedia.load t ~version:names.(0) ~pages:4 ~links:4;
    I.comat_check t;
    let far_rows () =
      I.query_rows t (Fmt.str "SELECT * FROM \"%s.page\"" last)
      |> List.sort compare
    in
    let with_copy = far_rows () in
    Alcotest.(check bool) "far view has rows" true (with_copy <> []);
    I.comat_drop t (v ^ ".page");
    Alcotest.(check bool) "same answers without the copy" true
      (with_copy = far_rows ()))

(* --- proof-backed gating of a copy's composed program --------------------------- *)

let test_proof_backed_gating () =
  (* a deep ADD COLUMN chain composes to 64 rules / ~700 literals — past the
     syntactic blow-up gate — and the copy is still maintained incrementally,
     because the verifier proves the composed rules equivalent to the
     layered stack; beyond the 4x hard ceiling the copy is fully refreshed *)
  let t, _ = Scenarios.Wikimedia.build ~versions:12 () in
  let gen = I.genealogy t in
  let copy version =
    let tvid = List.assoc "page" (G.version gen version).G.sv_tables in
    I.comat_add t (version ^ ".page");
    (G.tv_name (G.tv gen tvid), Option.get (G.comat gen tvid))
  in
  let name, cm = copy "v009" in
  Alcotest.(check string) "far copy" "tv!22!page" name;
  (match cm.G.cm_mode with
  | G.Cm_refresh why ->
    Alcotest.(check string) "hard ceiling"
      "composed rule set too large (256 rules, 3584 literals)" why
  | G.Cm_incremental _ -> Alcotest.fail "tv!22!page composed past the ceiling");
  I.comat_drop t "v009.page";
  let name, cm = copy "v007" in
  Alcotest.(check string) "deep copy" "tv!18!page" name;
  (match cm.G.cm_mode with
  | G.Cm_incremental rules ->
    Alcotest.(check int) "deep chain composed" 64 (List.length rules)
  | G.Cm_refresh why -> Alcotest.failf "tv!18!page refreshed: %s" why);
  Alcotest.(check string) "accepted by proof, not syntactic gates"
    "incremental: equivalence proved (symbolic chase, canonical instances)"
    cm.G.cm_proof;
  Scenarios.Wikimedia.load t ~version:"v001" ~pages:3 ~links:3;
  I.comat_check t

(* --- copies survive evolution and migration ---------------------------------- *)

let test_copy_survives_evolution () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.comat_add t "Do!.Todo";
  (* evolving a new version regenerates all delta code; the copy must come
     back registered and exact *)
  I.evolve t
    "CREATE SCHEMA VERSION Next FROM \"TasKy2\" WITH ADD COLUMN due AS 0 INTO Task;";
  Alcotest.(check int) "copy survived the evolution" 1
    (List.length (I.comat_list t));
  ignore
    (I.exec_sql t "INSERT INTO Next.Task (task, prio, due) VALUES ('n-1', 3, 9)");
  I.comat_check t;
  (* dropping the version the copy serves prunes the copy *)
  let t2 = Scenarios.Tasky.setup_full ~tasks:3 () in
  I.comat_add t2 "Do!.Todo";
  I.evolve t2 "DROP SCHEMA VERSION \"Do!\";";
  Alcotest.(check bool) "copy of the dropped version pruned" true
    (I.comat_list t2 = []);
  ignore (I.exec_sql t2 "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Zoe', 'post', 1)");
  Alcotest.(check int) "engine still consistent" 1
    (I.query_int t2 "SELECT COUNT(*) FROM TasKy2.Task WHERE task = 'post'")

let test_copy_in_open_txn () =
  let t = Scenarios.Tasky.setup_full ~tasks:3 () in
  ignore (I.exec_sql t "BEGIN");
  (match I.comat_add t "TasKy2.Task" with
  | exception I.Inverda_error _ -> ()
  | () -> Alcotest.fail "comat_add accepted inside an open transaction");
  ignore (I.exec_sql t "ROLLBACK")

(* --- suite ------------------------------------------------------------------- *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "comat"
    [
      ( "basics",
        [
          tc "smoke" test_smoke;
          tc "add guards" test_add_guards;
          tc "open transaction refused" test_copy_in_open_txn;
        ] );
      ( "regressions",
        [
          tc "no stale cache after maintenance" test_no_stale_cache_after_maintenance;
          tc "advisor zero profile" test_advisor_zero_profile;
          tc "advise_comat budget" test_advise_comat_budget;
          tc "fallback re-anchors at copy" test_fallback_reanchors_at_copy;
        ] );
      ( "copies",
        [ tc "proof-backed gating on deep chains" test_proof_backed_gating ] );
      ( "lifecycle",
        [ tc "copy survives evolution and drop" test_copy_survives_evolution ] );
    ]
