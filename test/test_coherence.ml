(* The coherence harness: at every checked state, every point of the layer
   lattice (batch executor, view cache, planner fast paths) answers the
   query battery exactly like the reference configuration — TasKy under all
   five materializations, Wikimedia-style genealogies across migrations,
   and every rollback state of a stride-1 fault-injection sweep. *)

module C = Scenarios.Coherence
module F = Scenarios.Faults
module I = Inverda.Api

let test_tasky () =
  let r = C.check_tasky ~tasks:30 ~ops:40 () in
  Alcotest.(check int) "two states per materialization" 10 r.C.states;
  Alcotest.(check bool) "queries compared" true (r.C.queries > 0)

let test_wikimedia () =
  let r = C.check_wikimedia ~versions:6 ~pages:8 ~links:12 () in
  Alcotest.(check int) "all five states ran" 5 r.C.states

let test_wikimedia_migrations () =
  (* a longer genealogy, checked initially and after migrating to the middle
     and to the last version *)
  let api, names = Scenarios.Wikimedia.build ~versions:8 () in
  Scenarios.Wikimedia.load api ~version:names.(0) ~pages:10 ~links:15;
  let stops =
    [ names.(Array.length names / 2); names.(Array.length names - 1) ]
  in
  let r =
    List.fold_left
      (fun acc v ->
        I.materialize api [ v ];
        C.check ~label:("wikimedia at " ^ v) api acc)
      (C.check ~label:"wikimedia initial" api C.empty)
      stops
  in
  Alcotest.(check int) "initial + two migrations" 3 r.C.states

let test_fault_sweep () =
  (* all five points answer like the reference on every rollback state *)
  let reports = C.check_faults ~tasks:6 () in
  Alcotest.(check int) "five materializations" 5 (List.length reports);
  List.iter
    (fun (mat, (r : F.report)) ->
      let label = String.concat "," (List.map string_of_int mat) in
      Alcotest.(check bool)
        (Fmt.str "{%s}: injected a fault at every statement" label)
        true
        (r.F.failpoints >= r.F.statements))
    reports

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "coherence"
    [
      ( "coherence",
        [
          tc "tasky all materializations" test_tasky;
          tc "wikimedia deep chain" test_wikimedia;
          tc "wikimedia migrations" test_wikimedia_migrations;
        ] );
      ("atomicity", [ tc "tasky sweep at every point" test_fault_sweep ]);
    ]
