(** The coherence harness: no optimization layer under the delta code may
    change an answer.

    At every checked state one query battery — [SELECT *], a filtered
    projection, [COUNT]/[MIN] and a self-join over every version view — runs
    at six points:

    - the {e reference}: the batch executor, the view-result cache and the
      planner fast paths ({!Minidb.Database.optimizations}) all off and no
      co-materialized copies — the paper's one view per SMO, read by the row
      interpreter;
    - the {e default}: every layer on, copies live;
    - four one-off points, each the default with exactly one layer off.

    Every point must answer exactly like the reference (rows sorted: the
    executors scan in different physical orders by design); where the cache
    is on, each query runs twice and the second, cache-served answer is the
    one compared. Every copy must also equal a full recomputation
    ({!Inverda.Comat.check}), and the full dump must be byte-identical at
    every point with the same copies setting (reading never disturbs
    state). The copy-free points run last. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module Db = Minidb.Database

exception Coherence_failure of string

let fail fmt = Fmt.kstr (fun s -> raise (Coherence_failure s)) fmt

(* --- the six points ------------------------------------------------------- *)

type layer = Batch | Cache | Fast_paths | Copies

(* Each point names the layers it switches off, in run order: the copy-free
   points come last, so the copies are dropped once per state. *)
let points =
  [
    ("default", []);
    ("batch-off", [ Batch ]);
    ("cache-off", [ Cache ]);
    ("fast-paths-off", [ Fast_paths ]);
    ("reference", [ Batch; Cache; Fast_paths; Copies ]);
    ("copies-off", [ Copies ]);
  ]

(* Every layer but the copies; the cache is flushed either way so that no
   point is served results computed under another. *)
let configure api off =
  let on l = not (List.mem l off) in
  I.set_batch api (on Batch);
  I.set_cache api false;
  I.set_cache api (on Cache);
  (I.database api).Db.optimizations <- on Fast_paths

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

(* [(sql, sorted rows)] for the battery over every version view, in catalog
   order; with [twice] the second (cache-served) answer is kept. *)
let battery ~where ~twice api =
  let ask sql =
    try
      if twice then ignore (I.query_rows api sql);
      List.sort compare (I.query_rows api sql)
    with e -> fail "%s: %s raised %s" where sql (Printexc.to_string e)
  in
  List.concat_map
    (fun (sv : G.schema_version) ->
      List.concat_map
        (fun (table, _) ->
          Inverda.Naming.version_view ~version:sv.G.sv_name ~table
          |> templates (I.database api)
          |> List.map (fun sql -> (sql, ask sql)))
        sv.G.sv_tables)
    (I.genealogy api).G.versions

(* --- one state ------------------------------------------------------------ *)

(* "Version.Table" naming a copy's table version (any owning version will
   do: they all share the copy). *)
let target_of api (cm : G.comat_copy) =
  List.find_map
    (fun (sv : G.schema_version) ->
      List.find_map
        (fun (table, tvid) ->
          if tvid = cm.G.cm_tv then Some (sv.G.sv_name ^ "." ^ table) else None)
        sv.G.sv_tables)
    (I.genealogy api).G.versions
  |> Option.get

type report = {
  states : int;  (** states checked, each at all six points *)
  queries : int;  (** battery queries per point at the last state *)
  copies : int;  (** copies registered at the last state (live or dormant) *)
  incremental : int;  (** of those, incrementally maintained *)
  maintenance_rows : int;  (** rows written by their maintenance *)
}

let empty =
  { states = 0; queries = 0; copies = 0; incremental = 0; maintenance_rows = 0 }

(** Run the battery at all six points of the instance's current state and
    raise {!Coherence_failure} naming [label], the point and the query on
    the first divergence. Leaves every layer on and the copies registered
    again (dormant copies — their version is physical right now — are never
    read and stay as they are). *)
let check ~label api acc =
  let gen = I.genealogy api in
  let live =
    G.comats_list gen
    |> List.filter (fun (cm : G.comat_copy) ->
           not (G.is_physical gen (G.tv gen cm.G.cm_tv)))
    |> List.map (target_of api)
  in
  (* raised after the answers are compared, so a divergent copy is reported
     as the answer it corrupts *)
  let comat =
    match I.comat_check api with
    | () -> None
    | exception Inverda.Comat.Comat_error msg -> Some msg
  in
  let copies_on = ref true in
  let runs =
    List.map
      (fun (name, off) ->
        let on l = not (List.mem l off) in
        configure api off;
        if on Copies <> !copies_on then begin
          List.iter
            (if on Copies then I.comat_add api else I.comat_drop api)
            live;
          copies_on := on Copies
        end;
        let answers =
          battery ~where:(Fmt.str "%s: %s point" label name) ~twice:(on Cache)
            api
        in
        (name, on Copies, answers, I.dump api))
      points
  in
  configure api [];
  if not !copies_on then List.iter (I.comat_add api) live;
  let _, _, reference, _ =
    List.find (fun (n, _, _, _) -> n = "reference") runs
  in
  List.iter
    (fun (name, _, answers, _) ->
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
  Option.iter (fail "%s: %s" label) comat;
  (* each dump against the first one taken with the same copies setting *)
  List.iter
    (fun (name, copies, _, dump) ->
      let name0, _, _, dump0 = List.find (fun (_, c, _, _) -> c = copies) runs in
      if dump <> dump0 then
        fail "%s: %s point: dump differs from the %s point (first diff: %s)"
          label name name0 (Faults.first_diff_line dump0 dump))
    runs;
  let copies = I.comat_list api in
  {
    states = acc.states + 1;
    queries = List.length reference;
    copies = List.length copies;
    incremental =
      List.length
        (List.filter
           (fun (cm : G.comat_copy) ->
             match cm.G.cm_mode with
             | G.Cm_incremental _ -> true
             | G.Cm_refresh _ -> false)
           copies);
    maintenance_rows =
      List.fold_left (fun n (cm : G.comat_copy) -> n + cm.G.cm_rows) 0 copies;
  }

(* --- the states ----------------------------------------------------------- *)

let mat_name mat = "{" ^ String.concat "," (List.map string_of_int mat) ^ "}"

(** TasKy + Do! + TasKy2 under all five valid materializations, with a copy
    of every derived table version (copies survive each migration and go
    dormant when their version turns physical), checked before and after a
    deterministic mixed write batch: ten states. *)
let check_tasky ?(tasks = 40) ?(ops = 60) () =
  let api = Tasky.setup_full ~tasks () in
  let gen = I.genealogy api in
  List.fold_left
    (fun (acc, round) mat ->
      I.set_materialization api mat;
      List.iter
        (fun (sv : G.schema_version) ->
          List.iter
            (fun (table, tvid) ->
              if not (G.is_physical gen (G.tv gen tvid) || G.is_comat gen tvid)
              then I.comat_add api (sv.G.sv_name ^ "." ^ table))
            sv.G.sv_tables)
        gen.G.versions;
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
    (G.enumerate_materializations gen)
  |> fst

(** A Wikimedia-style genealogy with copies at the middle and far end
    (whichever of them are derived; at least two), checked initially, after
    writes at both ends, migrated to the middle version, after more writes,
    and migrated to the last version: five states. *)
let check_wikimedia ?(versions = 6) ?(pages = 8) ?(links = 12) () =
  let api, names = Wikimedia.build ~versions () in
  let gen = I.genealogy api in
  let first = names.(0) in
  let mid = names.(Array.length names / 2) in
  let last = names.(Array.length names - 1) in
  Wikimedia.load api ~version:first ~pages ~links;
  let derived (version, table) =
    let sv = G.version gen version in
    not (G.is_physical gen (G.tv gen (List.assoc table sv.G.sv_tables)))
  in
  let targets =
    List.filter derived [ (mid, "page"); (last, "page"); (last, "link") ]
  in
  if List.length targets < 2 then
    fail "wikimedia: expected >= 2 derived copy targets, got %d"
      (List.length targets);
  List.iter (fun (v, t) -> I.comat_add api (v ^ "." ^ t)) targets;
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

(** The step-indexed TasKy fault-injection sweep ({!Faults.sweep}) with two
    copies live and all six points checked before the migration, after
    every injected fault's rollback, and after the successful migration.
    Returns the per-materialization sweep reports in enumeration order. *)
let check_faults ?(tasks = 8) ?stride () =
  List.map
    (fun mat ->
      let build () =
        let api = Tasky.setup_full ~tasks () in
        I.comat_add api "TasKy2.Task";
        I.comat_add api "Do!.Todo";
        api
      in
      let check state api =
        let label = "tasky fault sweep to " ^ mat_name mat ^ ", " ^ state in
        ignore (check ~label api empty)
      in
      ( mat,
        Faults.sweep ?stride ~check ~build
          ~migrate:(fun api -> I.set_materialization api mat)
          () ))
    (G.enumerate_materializations (I.genealogy (Tasky.setup_full ())))
