(** Genealogy-driven base closures for the cross-statement view cache.

    Every generated view's result is a function of the physical storage only:
    a table version reads its own data table (access case "local"), or its
    neighbour's side through the gamma rules of the connecting SMO (cases
    "forwards"/"backwards"), and derived auxiliaries read the opposite side
    of their SMO. Walking the genealogy therefore yields, for each generated
    view, the exact set of stored tables whose writes can change its result —
    which is what {!Minidb.Database.register_view_bases} needs so that a
    write through any trigger cascade invalidates precisely the affected
    versions and nothing else.

    Registering the closures here (rather than letting {!Minidb.Exec} walk
    the installed view bodies on demand) keys invalidation to the genealogy
    the delta code was generated from, and keeps views whose bodies call the
    SMOs' identifier-generating skolem functions cacheable: those functions
    are memoized and registered as pure, so re-serving their results is
    sound. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module D = Datalog.Ast
module Db = Minidb.Database

(* Predicates read by the rules deriving [pred]. *)
let rule_refs (rules : D.t) pred =
  List.concat_map
    (fun (r : D.rule) ->
      if r.D.head.D.pred = pred then
        List.filter_map
          (function
            | D.Pos a | D.Neg a -> Some a.D.pred
            | D.Cond _ | D.Assign _ -> None)
          r.D.body
      else [])
    rules
  |> List.sort_uniq compare

(* Auxiliaries stored as tables in the current state (mirrors
   [Codegen.physical_aux]; kept local so Codegen can depend on us). *)
let physical_aux (si : G.smo_instance) =
  let i = si.G.si_inst in
  (if si.G.si_materialized then i.S.aux_tgt else i.S.aux_src) @ i.S.aux_both

(** [closure gen] maps each generated relation name to the stored tables its
    contents depend on, transitively through the genealogy. *)
let closure (gen : G.t) : string -> string list =
  let tv_by_name = Hashtbl.create 32 in
  List.iter
    (fun v -> Hashtbl.replace tv_by_name (G.tv_name v) v)
    (G.all_table_versions gen);
  let physical_auxes = Hashtbl.create 32 in
  let aux_owner = Hashtbl.create 32 in
  List.iter
    (fun (si : G.smo_instance) ->
      let i = si.G.si_inst in
      List.iter
        (fun (r : S.rel) -> Hashtbl.replace aux_owner r.S.rel_name si)
        (i.S.aux_src @ i.S.aux_tgt @ i.S.aux_both);
      List.iter
        (fun (r : S.rel) -> Hashtbl.replace physical_auxes r.S.rel_name ())
        (physical_aux si))
    (G.all_smos gen);
  let memo = Hashtbl.create 32 in
  (* [stack] guards against cycles defensively; the genealogy is acyclic *)
  let rec bases stack name =
    if List.mem name stack then []
    else
      match Hashtbl.find_opt memo name with
      | Some r -> r
      | None ->
        let r =
          if Hashtbl.mem physical_auxes name then [ name ]
          else
            match Hashtbl.find_opt tv_by_name name with
            | Some v -> tv_bases (name :: stack) v
            | None -> (
              match Hashtbl.find_opt aux_owner name with
              | Some si ->
                (* derived auxiliary: defined by the opposite side's rules *)
                let rules =
                  if si.G.si_materialized then si.G.si_inst.S.gamma_src
                  else si.G.si_inst.S.gamma_tgt
                in
                refs_bases (name :: stack) rules name
              | None -> [ name ])
        in
        Hashtbl.replace memo name r;
        r
  and tv_bases stack v =
    match G.access_case gen v with
    | G.Local -> [ Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table ]
    | G.Forwards o ->
      refs_bases stack (G.smo gen o).G.si_inst.S.gamma_src (G.tv_name v)
    | G.Backwards i ->
      refs_bases stack (G.smo gen i).G.si_inst.S.gamma_tgt (G.tv_name v)
  and refs_bases stack rules pred =
    List.concat_map (bases stack) (rule_refs rules pred)
    |> List.sort_uniq compare
  in
  bases []

(** Register the base closure of every generated view — canonical
    table-version views, their via variants, derived auxiliary views and the
    user-facing version alias views — with the engine's view cache. Called
    after each delta-code regeneration (DDL flushed the previous
    registrations). *)
let register db (gen : G.t) =
  let bases = closure gen in
  List.iter
    (fun v ->
      let name = G.tv_name v in
      let b = bases name in
      Db.register_view_bases db name b;
      let adjacent =
        (match v.G.tv_in with Some i -> [ i ] | None -> []) @ v.G.tv_out
      in
      List.iter
        (fun smo_id -> Db.register_view_bases db (Naming.via name ~smo_id) b)
        adjacent)
    (G.all_table_versions gen);
  List.iter
    (fun (si : G.smo_instance) ->
      let i = si.G.si_inst in
      let derived =
        if si.G.si_materialized then i.S.aux_src else i.S.aux_tgt
      in
      List.iter
        (fun (r : S.rel) ->
          Db.register_view_bases db r.S.rel_name (bases r.S.rel_name))
        derived)
    (G.all_smos gen);
  List.iter
    (fun (sv : G.schema_version) ->
      List.iter
        (fun (table, tvid) ->
          let v = G.tv gen tvid in
          Db.register_view_bases db
            (Naming.version_view ~version:sv.G.sv_name ~table)
            (bases (G.tv_name v)))
        sv.G.sv_tables)
    gen.G.versions
