(* The symbolic bidirectionality verifier: GetPut and PutGet must prove for
   every SMO instance of the paper scenarios and for every SMO template over
   randomized schemas; single-atom mutants of the mapping rule sets must
   never survive undetected; deliberately information-losing rule sets are
   refuted with a concrete counterexample. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module V = Analysis.Verify
module S = Bidel.Smo_semantics
module Diag = Analysis.Diagnostic

let contains haystack needle = Astring.String.is_infix ~affix:needle haystack

let check_proves what (inst : S.instance) =
  let rep = V.check_instance inst in
  if not (V.report_ok rep) then
    Alcotest.failf "%s: GetPut %s / PutGet %s" what
      (V.verdict_to_string rep.V.lr_getput)
      (V.verdict_to_string rep.V.lr_putget)

let check_catalog what t =
  List.iter
    (fun (si : G.smo_instance) ->
      check_proves
        (Fmt.str "%s #%d (%s)" what si.G.si_id (Bidel.Ast.smo_name si.G.si_smo))
        si.G.si_inst)
    (G.all_smos (I.genealogy t))

(* --- the paper scenarios prove ---------------------------------------------- *)

let test_tasky_proves () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  check_catalog "tasky" t;
  Alcotest.(check bool) "verify_ok" true (I.verify_ok t);
  (* VRF001 never fires on the shipped scenarios; VRF003 cascade
     warnings are expected at genealogy branch points *)
  Alcotest.(check (list string)) "no verification errors" []
    (List.map Diag.to_string (Diag.errors (I.verify_diagnostics t)))

let test_wikimedia_proves () =
  let t, _versions = Scenarios.Wikimedia.build ~versions:8 () in
  check_catalog "wikimedia" t;
  Alcotest.(check bool) "verify_ok" true (I.verify_ok t)

let test_two_smo_proves () =
  List.iter
    (fun k1 ->
      List.iter
        (fun k2 ->
          let t = Scenarios.Two_smo.build (k1, k2) in
          check_catalog
            (Fmt.str "two_smo %s+%s"
               (Scenarios.Two_smo.kind_name k1)
               (Scenarios.Two_smo.kind_name k2))
            t)
        Scenarios.Two_smo.all_kinds)
    Scenarios.Two_smo.all_kinds

(* --- every SMO template over randomized schemas ------------------------------ *)

let instantiate schemas smo_str =
  S.instantiate
    ~smo:(Bidel.Parser.smo_of_string smo_str)
    ~source_cols:(fun t ->
      match List.assoc_opt t schemas with
      | Some cols -> cols
      | None -> Alcotest.failf "unknown test table %s" t)
    ~name_src:(fun t -> "src!" ^ t)
    ~name_tgt:(fun t -> "tgt!" ^ t)
    ~aux_name:(fun k -> "aux!" ^ k)
    ~skolem_name:Bidel.Verify.skolem_name

(* one SMO string per template, parameterized over the generated schemas *)
let templates ~t ~r ~s ~k =
  let ct = String.concat ", " in
  let ta = List.hd t and tb = List.nth t 1 in
  let ra = List.hd r and sa = List.hd s in
  [
    Fmt.str "CREATE TABLE n(%s)" (ct t);
    "DROP TABLE t";
    "RENAME TABLE t INTO t2";
    Fmt.str "RENAME COLUMN %s IN t TO zz" ta;
    Fmt.str "ADD COLUMN zz AS %s + %d INTO t" ta k;
    Fmt.str "DROP COLUMN %s FROM t DEFAULT %d" tb k;
    Fmt.str "DECOMPOSE TABLE t INTO dl(%s), dr(%s) ON PK" ta (ct (List.tl t));
    Fmt.str "DECOMPOSE TABLE t INTO dl(%s), dr(%s) ON FOREIGN KEY %s"
      (ct (List.tl t)) ta ta;
    "JOIN TABLE r, s INTO j ON PK";
    Fmt.str "JOIN TABLE r, s INTO j ON %s = %s" ra sa;
    "OUTER JOIN TABLE r, s INTO j ON PK";
    Fmt.str "SPLIT TABLE t INTO sl WITH %s = %d, sr WITH %s <> %d" ta k ta k;
    Fmt.str "SPLIT TABLE t INTO sl WITH %s = %d" ta k;
    Fmt.str "MERGE TABLE m1 (%s = %d), m2 (%s <> %d) INTO m" ta k ta k;
  ]

let take n xs =
  let rec go n = function x :: r when n > 0 -> x :: go (n - 1) r | _ -> [] in
  go n xs

let prop_templates_prove =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 4) (int_range 1 3) (int_range 1 3) (int_range 0 9))
  in
  let arb =
    QCheck.make gen ~print:(fun (wt, wr, ws, k) ->
        Fmt.str "widths t=%d r=%d s=%d, constant %d" wt wr ws k)
  in
  QCheck.Test.make ~count:20 ~name:"every SMO template proves both laws" arb
    (fun (wt, wr, ws, k) ->
      let t = take wt [ "a"; "b"; "c"; "d" ] in
      let r = take wr [ "e"; "f"; "g" ] in
      let s = take ws [ "h"; "i"; "j" ] in
      let schemas =
        [ ("t", t); ("r", r); ("s", s); ("m1", t); ("m2", t) ]
      in
      List.for_all
        (fun smo_str ->
          let rep = V.check_instance (instantiate schemas smo_str) in
          V.report_ok rep
          || QCheck.Test.fail_reportf "%s: GetPut %s / PutGet %s" smo_str
               (V.verdict_to_string rep.V.lr_getput)
               (V.verdict_to_string rep.V.lr_putget))
        (templates ~t ~r ~s ~k))

(* --- the mutation harness keeps the prover honest ---------------------------- *)

let test_mutants_rejected () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let total = ref 0 in
  List.iter
    (fun (id, smo, (r : V.mutation_report)) ->
      total := !total + r.V.mr_total;
      Alcotest.(check (list string))
        (Fmt.str "#%d %s survivors" id smo)
        [] r.V.mr_survivors;
      (* the books balance: every mutant got exactly one fate *)
      Alcotest.(check int)
        (Fmt.str "#%d %s fates" id smo)
        r.V.mr_total
        (r.V.mr_killed_by_law + r.V.mr_killed_by_safety
       + r.V.mr_killed_by_divergence + r.V.mr_equivalent))
    (I.verify_mutations t);
  Alcotest.(check bool) "mutants were generated" true (!total > 50)

(* --- refutation with a concrete counterexample ------------------------------- *)

let test_broken_lens_refuted () =
  (* keep only the first gamma_src rule of a SPLIT: the reconstruction loses
     the second partition, so both laws must be refuted with a concrete
     violating instance, and VRF001 must reject it *)
  let schemas = [ ("t", [ "a"; "b" ]) ] in
  let i =
    instantiate schemas "SPLIT TABLE t INTO sl WITH a = 1, sr WITH a <> 1"
  in
  check_proves "intact SPLIT" i;
  let broken = { i with S.gamma_src = [ List.hd i.S.gamma_src ] } in
  let rep = V.check_instance broken in
  (match (rep.V.lr_getput, rep.V.lr_putget) with
  | V.Refuted cx, _ | _, V.Refuted cx ->
    Alcotest.(check bool) "counterexample is nonempty" true (cx.V.cx_data <> []);
    Alcotest.(check bool) "counterexample renders" true
      (String.length (Analysis.Symbolic.concrete_to_string cx.V.cx_data) > 0)
  | _ ->
    Alcotest.failf "broken lens not refuted: GetPut %s / PutGet %s"
      (V.verdict_to_string rep.V.lr_getput)
      (V.verdict_to_string rep.V.lr_putget));
  let diags = V.law_diagnostics ~context:"broken SPLIT" broken in
  Alcotest.(check bool) "VRF001 rejects" true
    (List.exists (fun d -> d.Diag.code = "VRF001" && Diag.is_error d) diags)

(* --- the JSON surface -------------------------------------------------------- *)

let test_verify_json_shape () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let json = I.verify_json t in
  Alcotest.(check bool) "is an object" true
    (String.length json > 2 && json.[0] = '{');
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (contains json field))
    [
      "\"ok\":true"; "\"smos\":"; "\"getput\""; "\"putget\"";
      "\"status\":\"proved\""; "\"diagnostics\":";
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "verify"
    [
      ( "laws",
        [
          tc "tasky proves" test_tasky_proves;
          tc "wikimedia proves" test_wikimedia_proves;
          tc "two-SMO chains prove" test_two_smo_proves;
          QCheck_alcotest.to_alcotest prop_templates_prove;
        ] );
      ( "mutation",
        [ tc "single-atom mutants never survive" test_mutants_rejected ] );
      ( "refutation",
        [ tc "broken lens refuted with counterexample" test_broken_lens_refuted ]
      );
      ("json", [ tc "verify --json shape" test_verify_json_shape ]);
    ]
