(* Datalog substrate: evaluation semantics, and Appendix A — both lens laws
   of every SMO proved by the verifier. *)

module D = Datalog.Ast
module Eval = Datalog.Eval
module Sql = Minidb.Sql_ast
module Value = Minidb.Value

let i n = Value.Int n

let atom = D.atom

let ( <-- ) h b = D.rule h b

let v = D.v

let cond e = D.Cond e

let lt a b = Sql.Binop (Sql.Lt, Sql.Col (None, a), Sql.Const (Value.Int b))

(* --- evaluation ------------------------------------------------------------- *)

let test_eval_join () =
  let rules =
    [
      atom "out" [ v "p"; v "a"; v "b" ]
      <-- [ D.Pos (atom "r" [ v "p"; v "a" ]); D.Pos (atom "s" [ v "p"; v "b" ]) ];
    ]
  in
  let out =
    Eval.eval_pred rules
      [
        ("r", [ [| i 1; i 10 |]; [| i 2; i 20 |] ]);
        ("s", [ [| i 1; i 100 |]; [| i 3; i 300 |] ]);
      ]
      "out"
  in
  Alcotest.(check bool) "joined" true (Eval.same_tuples out [ [| i 1; i 10; i 100 |] ])

let test_eval_negation () =
  let rules =
    [
      atom "out" [ v "p" ]
      <-- [ D.Pos (atom "r" [ v "p"; D.Anon ]); D.Neg (atom "s" [ v "p"; D.Anon ]) ];
    ]
  in
  let out =
    Eval.eval_pred rules
      [ ("r", [ [| i 1; i 0 |]; [| i 2; i 0 |] ]); ("s", [ [| i 1; i 9 |] ]) ]
      "out"
  in
  Alcotest.(check bool) "anti-join" true (Eval.same_tuples out [ [| i 2 |] ])

let test_eval_condition_and_assign () =
  let rules =
    [
      atom "out" [ v "p"; v "b" ]
      <-- [
            D.Pos (atom "r" [ v "p"; v "a" ]);
            cond (lt "a" 10);
            D.Assign
              ("b", Sql.Binop (Sql.Add, Sql.Col (None, "a"), Sql.Const (Value.Int 1)));
          ];
    ]
  in
  let out =
    Eval.eval_pred rules [ ("r", [ [| i 1; i 5 |]; [| i 2; i 50 |] ]) ] "out"
  in
  Alcotest.(check bool) "filtered + computed" true
    (Eval.same_tuples out [ [| i 1; i 6 |] ])

let test_eval_stratified () =
  (* out depends on mid which depends on base; negation across strata *)
  let rules =
    [
      atom "mid" [ v "p" ] <-- [ D.Pos (atom "base" [ v "p" ]) ];
      atom "out" [ v "p" ]
      <-- [ D.Pos (atom "all" [ v "p" ]); D.Neg (atom "mid" [ v "p" ]) ];
    ]
  in
  let out =
    Eval.eval_pred rules
      [ ("base", [ [| i 1 |] ]); ("all", [ [| i 1 |]; [| i 2 |] ]) ]
      "out"
  in
  Alcotest.(check bool) "stratified negation" true (Eval.same_tuples out [ [| i 2 |] ])

let test_eval_rejects_recursion () =
  let rules =
    [ atom "p" [ v "x" ] <-- [ D.Pos (atom "p" [ v "x" ]) ] ]
  in
  match Eval.eval rules [] with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "recursion must be rejected"

let test_eval_self_read_rejected () =
  (* regression for the stratifier's self-dependency filter: a head reading
     its own predicate is recursion even when the EDB supplies tuples under
     that name — derived relations replace extensional ones, so the rule
     would feed on its own output *)
  let rules =
    [ atom "out" [ v "x" ] <-- [ D.Pos (atom "out" [ v "x" ]); cond (lt "x" 5) ] ]
  in
  (match Eval.eval rules [ ("out", [ [| i 1 |] ]) ] with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "self-read must be rejected");
  (* an indirect cycle must be rejected by the visit, not just the direct
     self-dependency pre-check *)
  let cyclic =
    [
      atom "a" [ v "x" ] <-- [ D.Pos (atom "b" [ v "x" ]) ];
      atom "b" [ v "x" ] <-- [ D.Pos (atom "a" [ v "x" ]) ];
    ]
  in
  (match Eval.eval cyclic [] with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "indirect cycle must be rejected");
  (* whereas a head merely *shadowing* an EDB relation of the same name is
     fine: the derived tuples replace the extensional ones *)
  let shadow = [ atom "out2" [ v "x" ] <-- [ D.Pos (atom "src" [ v "x" ]) ] ] in
  let out =
    Eval.eval_pred shadow
      [ ("src", [ [| i 1 |] ]); ("out2", [ [| i 9 |] ]) ]
      "out2"
  in
  Alcotest.(check bool) "derived replaces edb" true
    (Eval.same_tuples out [ [| i 1 |] ])

let test_safety_check () =
  (* unbound head variable *)
  let bad = [ atom "out" [ v "x" ] <-- [ D.Neg (atom "r" [ v "x" ]) ] ] in
  match D.check_safety bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unsafe rule accepted"

(* --- Appendix A: both laws of every SMO, decided by the one prover ---------------- *)

let make_inst schemas smo_str =
  Bidel.Smo_semantics.instantiate
    ~smo:(Bidel.Parser.smo_of_string smo_str)
    ~source_cols:(fun t -> List.assoc t schemas)
    ~name_src:(fun t -> "src!" ^ t)
    ~name_tgt:(fun t -> "tgt!" ^ t)
    ~aux_name:(fun k -> "aux!" ^ k)
    ~skolem_name:Bidel.Verify.skolem_name

let check_laws name schemas smo =
  let rep = Analysis.Verify.check_instance (make_inst schemas smo) in
  match (rep.Analysis.Verify.lr_getput, rep.Analysis.Verify.lr_putget) with
  | Analysis.Verify.Proved _, Analysis.Verify.Proved _ -> ()
  | getput, putget ->
    Alcotest.failf "%s: GetPut %s / PutGet %s" name
      (Analysis.Verify.verdict_to_string getput)
      (Analysis.Verify.verdict_to_string putget)

let test_laws_trivial () =
  check_laws "rename table" [ ("t", [ "a"; "b" ]) ] "RENAME TABLE t INTO u";
  check_laws "rename column" [ ("t", [ "a"; "b" ]) ] "RENAME COLUMN a IN t TO z";
  check_laws "drop table" [ ("t", [ "a" ]) ] "DROP TABLE t"

let test_laws_columns () =
  check_laws "add column" [ ("t", [ "a"; "b" ]) ] "ADD COLUMN c AS a + 1 INTO t";
  check_laws "drop column" [ ("t", [ "a"; "b"; "c" ]) ]
    "DROP COLUMN b FROM t DEFAULT 0"

let test_laws_split_single () =
  check_laws "split single" [ ("t", [ "a"; "b" ]) ]
    "SPLIT TABLE t INTO r WITH a < 5"

let test_laws_split_full () =
  (* the paper's showcase: rules (28)-(45) and Appendix A *)
  check_laws "split" [ ("t", [ "a" ]) ]
    "SPLIT TABLE t INTO r WITH a < 5, s WITH a > 2"

let test_laws_merge () =
  check_laws "merge"
    [ ("r", [ "a" ]); ("s", [ "a" ]) ]
    "MERGE TABLE r (a < 5), s (a > 2) INTO t"

let test_laws_decompose_pk () =
  check_laws "decompose pk" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO r(a), s(b) ON PK";
  check_laws "projection" [ ("t", [ "a"; "b"; "c" ]) ]
    "DECOMPOSE TABLE t INTO r(a, c)"

let test_laws_join_pk () =
  check_laws "inner join pk"
    [ ("r", [ "a" ]); ("s", [ "b" ]) ]
    "JOIN TABLE r, s INTO t ON PK";
  check_laws "outer join pk"
    [ ("r", [ "a" ]); ("s", [ "b" ]) ]
    "OUTER JOIN TABLE r, s INTO t ON PK"

let test_laws_decompose_ids () =
  (* the identifier-generating decompositions: their pair-id state is carried
     through the round trip, so the laws are proved like any other *)
  check_laws "decompose fk" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO r(a), s(b) ON FOREIGN KEY fk";
  check_laws "decompose cond" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO r(a), s(b) ON a = b"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "datalog"
    [
      ( "eval",
        [
          tc "join" test_eval_join;
          tc "negation" test_eval_negation;
          tc "condition + assign" test_eval_condition_and_assign;
          tc "stratified" test_eval_stratified;
          tc "rejects recursion" test_eval_rejects_recursion;
          tc "self-read regression" test_eval_self_read_rejected;
          tc "safety" test_safety_check;
        ] );
      ( "appendix A (symbolic)",
        [
          tc "trivial smos" test_laws_trivial;
          tc "add/drop column" test_laws_columns;
          tc "split single" test_laws_split_single;
          tc "split (the paper's derivation)" test_laws_split_full;
          tc "merge" test_laws_merge;
          tc "decompose on pk" test_laws_decompose_pk;
          tc "join on pk" test_laws_join_pk;
          tc "decompose on fk and cond" test_laws_decompose_ids;
        ] );
    ]
