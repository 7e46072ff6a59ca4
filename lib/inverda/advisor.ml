(** Materialization advisor — the paper notes that "an advisor tool
    supporting the optimization task is very well imaginable" (Section 8.2);
    this is that tool.

    Given a workload profile (relative access weight per schema version), the
    advisor scores every valid materialization schema and recommends the one
    minimizing the expected propagation distance. The cost model follows the
    observation behind Figures 11-13: every SMO hop between an accessed table
    version and the physical data adds roughly constant relative overhead,
    with forward propagation (reading newer data from an older version)
    slightly cheaper than backward. *)

module G = Genealogy

type profile = (string * float) list
(** schema version name -> relative access weight *)

(** Number of SMO hops from [tv] to its data under materialization [mat],
    weighted by direction. *)
let rec distance (gen : G.t) mat tvid =
  let v = G.tv gen tvid in
  let is_mat id = List.mem id mat in
  match List.find_opt is_mat v.G.tv_out with
  | Some o ->
    (* data lies forward: propagate through o to any of its targets *)
    let si = G.smo gen o in
    let best =
      List.fold_left
        (fun acc t -> min acc (distance gen mat t))
        max_float si.G.si_target_tvs
    in
    1.0 +. best
  | None -> (
    match v.G.tv_in with
    | None -> 0.0
    | Some i ->
      if is_mat i then 0.0
      else begin
        (* data lies backward through the incoming SMO; backward reads are a
           bit cheaper on average (cf. the Figure 12 asymmetry) *)
        let si = G.smo gen i in
        let best =
          List.fold_left
            (fun acc s -> min acc (distance gen mat s))
            max_float si.G.si_source_tvs
        in
        0.8 +. best
      end)

(** Expected cost of [profile] under materialization [mat]. *)
let cost (gen : G.t) mat (profile : profile) =
  List.fold_left
    (fun acc (version, weight) ->
      match G.find_version gen version with
      | None -> acc
      | Some sv ->
        let version_cost =
          List.fold_left
            (fun c (_, tvid) -> c +. distance gen mat tvid)
            0.0 sv.G.sv_tables
        in
        acc +. (weight *. version_cost))
    0.0 profile

type recommendation = {
  materialization : int list;  (** SMO ids to materialize *)
  estimated_cost : float;
  alternatives : (int list * float) list;  (** all candidates, best first *)
}

let total_weight (profile : profile) =
  List.fold_left (fun acc (_, w) -> acc +. w) 0.0 profile

(** Score every valid materialization schema for the profile. *)
let advise (gen : G.t) (profile : profile) =
  if total_weight profile <= 0.0 then
    (* no observed evidence: every candidate scores 0.0 and the sort order
       would pick an arbitrary schema — possibly migrating away from the only
       materialization for nothing. Recommend staying put. *)
    Some
      {
        materialization = G.current_materialization gen;
        estimated_cost = 0.0;
        alternatives = [];
      }
  else
    let candidates = G.enumerate_materializations gen in
    let scored =
      List.map (fun mat -> (mat, cost gen mat profile)) candidates
      |> List.sort (fun (_, a) (_, b) -> compare a b)
    in
    match scored with
    | [] -> None
    | (best, c) :: _ ->
      Some { materialization = best; estimated_cost = c; alternatives = scored }

(** Convenience: advise and migrate in one step; returns true if the
    materialization changed. *)
let advise_and_migrate db (gen : G.t) profile =
  match advise gen profile with
  | None -> false
  | Some r ->
    let current = G.current_materialization gen in
    if current = r.materialization then false
    else begin
      Migration.set_materialization db gen r.materialization;
      true
    end
