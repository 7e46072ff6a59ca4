(** The coherence harness: no optimization layer under the delta code may
    change an answer.

    At every checked state one query battery — [SELECT *], a filtered
    projection, [COUNT]/[MIN] and a self-join over every version view — runs
    at five points:

    - the {e reference}: the batch executor, the view-result cache and the
      planner fast paths ({!Minidb.Database.optimizations}) all off — the
      paper's one view per SMO, read by the row interpreter;
    - the {e default}: every layer on;
    - three one-off points, each the default with exactly one layer off.

    Every point must answer exactly like the reference (rows sorted: the
    executors scan in different physical orders by design); where the cache
    is on, each query runs twice and the second, cache-served answer is the
    one compared. Then one write goes through each version view, inside a
    transaction that is rolled back afterwards, and its queries run again:
    their answers must be the reference's after the same write, so a cache
    that served results across a write would fail. The full dump must be
    byte-identical at every point (reading, and a rolled-back write, never
    disturb state). *)

module I = Inverda.Api
module G = Inverda.Genealogy
module Db = Minidb.Database

exception Coherence_failure of string

let fail fmt = Fmt.kstr (fun s -> raise (Coherence_failure s)) fmt

(* --- the five points ------------------------------------------------------ *)

type layer = Batch | Cache | Fast_paths

(* Each point names the layers it switches off, in run order. *)
let points =
  [
    ("default", []);
    ("batch-off", [ Batch ]);
    ("cache-off", [ Cache ]);
    ("fast-paths-off", [ Fast_paths ]);
    ("reference", [ Batch; Cache; Fast_paths ]);
  ]

(* The cache is flushed either way so that no point is served results
   computed under another. *)
let configure api off =
  let on l = not (List.mem l off) in
  I.set_batch api (on Batch);
  I.set_cache api false;
  I.set_cache api (on Cache);
  Db.set_optimizations (I.database api) (on Fast_paths)

(* --- the battery ---------------------------------------------------------- *)

(* Scan, selection-vector filter + projection, aggregate and (hash) self-join
   per version view; column names come from the installed view. *)
let templates db view =
  let cols =
    match Db.find_object db view with
    | Some (Db.Obj_view v) -> v.Db.view_cols
    | Some (Db.Obj_table t) -> Minidb.Schema.names t.Minidb.Table.schema
    | None -> []
  in
  let star = Fmt.str "SELECT * FROM \"%s\"" view in
  match cols with
  | [] -> [ star ]
  | c0 :: rest ->
    let c1 = match rest with c :: _ -> c | [] -> c0 in
    [
      star;
      Fmt.str "SELECT %s FROM \"%s\" WHERE %s IS NOT NULL" c0 view c0;
      Fmt.str "SELECT COUNT(*), MIN(%s) FROM \"%s\"" c0 view;
      Fmt.str
        "SELECT a.%s, b.%s FROM \"%s\" a JOIN \"%s\" b ON a.%s = b.%s" c0 c1
        view view c0 c0;
    ]

(* Every version view, in catalog order. *)
let version_views api =
  List.concat_map
    (fun (sv : G.schema_version) ->
      List.map
        (fun (table, _) -> Inverda.Naming.version_view ~version:sv.G.sv_name ~table)
        sv.G.sv_tables)
    (I.genealogy api).G.versions

(* The write a state puts between the runs of a view's queries: delete the
   row with the least key through the view (none when the view is empty).
   Chosen once per state, so every point makes the same write. *)
let writes api =
  List.map
    (fun view ->
      let write =
        match I.query_rows api (Fmt.str "SELECT MIN(p) FROM \"%s\"" view) with
        | [ [ k ] ] when not (Minidb.Value.is_null k) ->
          Some
            (Fmt.str "DELETE FROM \"%s\" WHERE p = %s" view
               (Minidb.Value.to_literal k))
        | _ -> None
      in
      (view, write))
    (version_views api)

(* [(label, sorted rows)] for the battery over every version view, in
   catalog order: each query with [twice] the second (cache-served) answer,
   then each again after the view's write, which is rolled back. *)
let battery ~where ~twice api writes =
  let guard sql f =
    try f () with e -> fail "%s: %s raised %s" where sql (Printexc.to_string e)
  in
  let ask ~twice sql =
    guard sql (fun () ->
        if twice then ignore (I.query_rows api sql);
        List.sort compare (I.query_rows api sql))
  in
  let run sql = guard sql (fun () -> ignore (I.exec_sql api sql)) in
  List.concat_map
    (fun (view, write) ->
      let queries = templates (I.database api) view in
      let before = List.map (fun sql -> (sql, ask ~twice sql)) queries in
      match write with
      | None -> before
      | Some write ->
        run "BEGIN";
        let after =
          Fun.protect
            ~finally:(fun () -> run "ROLLBACK")
            (fun () ->
              run write;
              List.map
                (fun sql -> (sql ^ " after " ^ write, ask ~twice:false sql))
                queries)
        in
        before @ after)
    writes

(* --- one state ------------------------------------------------------------ *)

type report = {
  states : int;  (** states checked, each at all five points *)
  queries : int;  (** battery queries per point at the last state *)
}

let empty = { states = 0; queries = 0 }

(** Run the battery at all five points of the instance's current state and
    raise {!Coherence_failure} naming [label], the point and the query on
    the first divergence. Leaves every layer on. *)
let check ~label api acc =
  let writes = writes api in
  let runs =
    List.map
      (fun (name, off) ->
        configure api off;
        let answers =
          battery ~where:(Fmt.str "%s: %s point" label name)
            ~twice:(not (List.mem Cache off)) api writes
        in
        (name, answers, I.dump api))
      points
  in
  configure api [];
  let _, reference, _ = List.find (fun (n, _, _) -> n = "reference") runs in
  List.iter
    (fun (name, answers, _) ->
      if List.map fst answers <> List.map fst reference then
        fail "%s: %s point: the battery differs from the reference's" label
          name;
      List.iter2
        (fun (q, rows) (_, expected) ->
          if rows <> expected then
            fail
              "%s: %s point: %s answers differently from the reference (%d \
               rows vs %d)"
              label name q (List.length rows) (List.length expected))
        answers reference)
    runs;
  (* each dump against the first point's *)
  let name0, _, dump0 = List.hd runs in
  List.iter
    (fun (name, _, dump) ->
      if dump <> dump0 then
        fail "%s: %s point: dump differs from the %s point (first diff: %s)"
          label name name0 (Faults.first_diff_line dump0 dump))
    runs;
  { states = acc.states + 1; queries = List.length reference }

(* --- the states ----------------------------------------------------------- *)

let mat_name mat = "{" ^ String.concat "," (List.map string_of_int mat) ^ "}"

(** TasKy + Do! + TasKy2 under all five valid materializations, checked
    before and after a deterministic mixed write batch: ten states. *)
let check_tasky ?(tasks = 40) ?(ops = 60) () =
  let api = Tasky.setup_full ~tasks () in
  List.fold_left
    (fun (acc, round) mat ->
      I.set_materialization api mat;
      let label = "tasky mat " ^ mat_name mat in
      let acc = check ~label api acc in
      let rng = Rng.create ~seed:(1000 + round) () in
      ignore
        (Workload.replay_profile
           (Workload.make_runner ~rng (I.database api))
           ~shares:
             Workload.[ (V_tasky, 0.3); (V_tasky2, 0.4); (V_do, 0.3) ]
           ~mix:Workload.paper_mix ~ops);
      (check ~label:(label ^ " after writes") api acc, round + 1))
    (empty, 0)
    (G.enumerate_materializations (I.genealogy api))
  |> fst

(** A Wikimedia-style genealogy checked initially, after writes at both
    ends, migrated to the middle version, after more writes, and migrated to
    the last version: five states. *)
let check_wikimedia ?(versions = 6) ?(pages = 8) ?(links = 12) () =
  let api, names = Wikimedia.build ~versions () in
  let first = names.(0) in
  let mid = names.(Array.length names / 2) in
  let last = names.(Array.length names - 1) in
  Wikimedia.load api ~version:first ~pages ~links;
  let acc = check ~label:"wikimedia initial" api empty in
  Wikimedia.load api ~version:first ~pages:(pages / 2) ~links:(links / 2);
  Wikimedia.load api ~version:last ~pages:(pages / 2) ~links:(links / 2);
  ignore
    (I.exec_sql api
       (Fmt.str "UPDATE %s.page SET namespace = 0 WHERE title = 'Page_0'" first));
  let acc = check ~label:"wikimedia after writes" api acc in
  I.materialize api [ mid ];
  let acc = check ~label:("wikimedia at " ^ mid) api acc in
  Wikimedia.load api ~version:last ~pages:2 ~links:2;
  let acc = check ~label:"wikimedia after more writes" api acc in
  I.materialize api [ last ];
  check ~label:("wikimedia at " ^ last) api acc

(** The step-indexed TasKy fault-injection sweep ({!Faults.sweep}) with all
    five points checked before the migration, after every injected fault's
    rollback, and after the successful migration.
    Returns the per-materialization sweep reports in enumeration order. *)
let check_faults ?(tasks = 8) ?stride () =
  List.map
    (fun mat ->
      let build () = Tasky.setup_full ~tasks () in
      let check state api =
        let label = "tasky fault sweep to " ^ mat_name mat ^ ", " ^ state in
        ignore (check ~label api empty)
      in
      ( mat,
        Faults.sweep ?stride ~check ~build
          ~migrate:(fun api -> I.set_materialization api mat)
          () ))
    (G.enumerate_materializations (I.genealogy (Tasky.setup_full ())))
