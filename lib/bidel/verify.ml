(** Checking the bidirectionality conditions (26) and (27) of the paper for
    concrete SMO instances and concrete data, using the Datalog evaluator as
    the semantics oracle:

    - condition (27): [D_src = gamma_src^data (gamma_tgt (D_src))]
    - condition (26): [D_tgt = gamma_tgt^data (gamma_src (D_tgt))]

    The [^data] projection keeps only data tables (auxiliaries are dropped
    from the comparison, as in the paper). Identifier-generating SMOs carry
    persistent pair-identifier state: the [backfill] rules create it for
    pre-existing data (it reads the combined-side table, so it is a no-op in
    the direction where that table is empty), and [state_updates] fold the
    derived ID contents back into the persistent auxiliary between the two
    mapping steps — mirroring how InVerDa materializes these auxiliaries
    eagerly. *)

module Eval = Datalog.Eval
module Value = Minidb.Value
module S = Smo_semantics

type data = (string * Value.t array list) list

(** Register a memoized identifier-generating function. Uses a shared plain
    counter (never undo-logged: rolled-back identifiers must not be reused
    for different payloads). *)
let register_skolem db ~counter name =
  let memo : (Value.t list, Value.t) Hashtbl.t = Hashtbl.create 16 in
  (* the memo makes the function deterministic in its arguments, so results
     computed through it may be served from the view cache *)
  Minidb.Database.register_function ~pure:true db name (fun _db args ->
      match Hashtbl.find_opt memo args with
      | Some v -> v
      | None ->
        incr counter;
        let v = Value.Int !counter in
        Hashtbl.replace memo args v;
        v)

(** Standard skolem naming for stand-alone instantiations (tests, the formal
    evaluation bench): ["sk!<kind>"]. *)
let skolem_name kind = "sk!" ^ kind

let test_engine () =
  let db = Minidb.Database.create () in
  let counter = ref 1_000_000 in
  List.iter
    (fun kind -> register_skolem db ~counter (skolem_name kind))
    [ "id"; "ids"; "idt"; "idr" ];
  db

let rel_names rels = List.map (fun (r : S.rel) -> r.S.rel_name) rels

(** Restrict [data] to the named relations, adding empty relations for
    missing names (so comparisons are total). *)
let project names data =
  List.map
    (fun n -> (n, Option.value (List.assoc_opt n data) ~default:[]))
    names

(** Left-biased union of two extensional databases. *)
let merge a b = a @ List.filter (fun (n, _) -> not (List.mem_assoc n a)) b

let apply_state_updates (inst : S.instance) data =
  List.map
    (fun (name, tuples) ->
      match
        List.find_opt (fun (_, state) -> state = name) inst.S.state_updates
      with
      | Some (fresh, _) ->
        (name, Option.value (List.assoc_opt fresh data) ~default:tuples)
      | None -> (name, tuples))
    data

type law = GetPut | PutGet

let law_side (inst : S.instance) = function
  | GetPut -> (inst.S.sources, inst.S.gamma_tgt, inst.S.gamma_src)
  | PutGet -> (inst.S.targets, inst.S.gamma_src, inst.S.gamma_tgt)

(* The round trip never looks inside a tuple, so the Datalog oracle and the
   symbolic chase share it: backfill the identifier state, map out (carrying
   the persistent pair-id state across and folding the derived state updates
   into it), map back, and keep the law's data relations. *)
let roundtrip ~eval (inst : S.instance) law data =
  let rels, first, second = law_side inst law in
  let edb = merge (eval inst.S.backfill data) data in
  let state = project (rel_names inst.S.aux_both) edb in
  let out = merge (eval first edb) state in
  project (rel_names rels) (eval second (apply_state_updates inst out))

let equal_data a b =
  List.length a = List.length b
  && List.for_all
       (fun (n, tuples) ->
         match List.assoc_opt n b with
         | Some tuples' -> Eval.same_tuples tuples tuples'
         | None -> false)
       a

type report = { ok : bool; expected : data; actual : data }

let check ?engine inst law data =
  let engine = match engine with Some e -> e | None -> test_engine () in
  let rels, _, _ = law_side inst law in
  let expected = project (rel_names rels) data in
  let actual = roundtrip ~eval:(Eval.eval ~engine) inst law data in
  { ok = equal_data expected actual; expected; actual }

let check_src ?engine inst data = check ?engine inst GetPut data

let check_tgt ?engine inst data = check ?engine inst PutGet data

let pp_data ppf (data : data) =
  List.iter
    (fun (n, tuples) ->
      Fmt.pf ppf "%s:@." n;
      List.iter
        (fun t ->
          Fmt.pf ppf "  (%a)@." (Fmt.array ~sep:(Fmt.any ", ") Value.pp) t)
        (List.sort compare tuples))
    (List.sort compare data)

let report_to_string r =
  Fmt.str "expected:@.%aactual:@.%a" pp_data r.expected pp_data r.actual
