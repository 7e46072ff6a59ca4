(** What every workload shares: repeated set-up, the closed-loop client,
    the administrative rounds and the result line.

    One client drives the engine in a closed loop: each operation is issued
    after the previous one returned, on one thread. Every engine setting
    stays at its shipped default (strict analysis, view cache, batch
    executor, flattening and telemetry all on), and every workload runs
    with a write-ahead log in its default [Flush] mode.

    Every count is fixed: a workload issues the same operations whatever
    the speed of the code under test, so two builds are always measured on
    the same work. *)

module I = Inverda.Api
module M = Minidb.Metrics

type env = { workload : string; seed : int; trace : bool; work_dir : string }

type phase = Warm | Timed | Admin

(** Counters the engine and the runtime keep, read between operations. *)
type counters = {
  c_hits : int;
  c_misses : int;
  c_scanned : int;
  c_returned : int;
  c_minor : float;
  c_major : int;
  c_log : int;  (** bytes in the log file *)
}

type ctx = {
  env : env;
  mutable api : I.t;
  wal_dir : string;
  tracing : Tracing.t option;
  mutable traced : bool;  (** is the current block of operations traced? *)
  mutable block_left : int;
  mutable phase : phase;
  reads : Meter.series;  (** untraced timed reads, ms *)
  writes : Meter.series;
  traced_reads : Meter.series;
  traced_writes : Meter.series;
  evolves : Meter.series;  (** evolve-and-drop rounds, ms *)
  migrations : Meter.series;  (** MATERIALIZE round trips, s *)
  as_ofs : Meter.series;  (** AS OF queries, ms *)
  checkpoints : Meter.series;
  recoveries : Meter.series;  (** seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable timed_ops : int;  (** traffic statements of the timed phase *)
  mutable busy_ns : int;  (** ... the time spent inside the untraced ones *)
  mutable user_writes : int;  (** ... and how many were writes *)
  mutable traffic : counters;  (** counter growth over the timed traffic *)
  mutable problems : string list;  (** failed checks and operations *)
  mutable marks : (string * int) list;  (** wall clock at phase ends, newest first *)
}

(* In a traced run, blocks of this many traffic operations alternate between
   traced and untraced, so both see the same data and the same heap, and
   their difference is the tracing overhead. *)
let block = 32

let started = Meter.now_ns ()

let mark ctx name = ctx.marks <- (name, Meter.now_ns ()) :: ctx.marks

let problem ctx fmt =
  Printf.ksprintf (fun s -> ctx.problems <- s :: ctx.problems) fmt

let check ctx ok fmt =
  Printf.ksprintf (fun s -> if not ok then ctx.problems <- s :: ctx.problems) fmt

let clip s = if String.length s > 160 then String.sub s 0 160 ^ "..." else s

(* --- decks ------------------------------------------------------------ *)

(** Operations are dealt from a deck that holds the workload's exact mix,
    reshuffled with the seed each time it runs out: the seed decides the
    order and the rows touched, never the proportions, so the quantiles of
    two seeds describe the same mix. *)
type 'a deck = { cards : 'a array; rng : Scenarios.Rng.t; mutable left : int }

let deck rng cards = { cards = Array.of_list cards; rng; left = 0 }

let deal d =
  if d.left = 0 then begin
    for i = Array.length d.cards - 1 downto 1 do
      let j = Scenarios.Rng.int d.rng (i + 1) in
      let c = d.cards.(i) in
      d.cards.(i) <- d.cards.(j);
      d.cards.(j) <- c
    done;
    d.left <- Array.length d.cards
  end;
  d.left <- d.left - 1;
  d.cards.(d.left)

(** [n] copies of [x]. *)
let copies n x = List.init n (fun _ -> x)

(** Every pairing of [xs] with [ys]. *)
let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* --- set-up ----------------------------------------------------------- *)

let wal_dir env rep =
  Filename.concat env.work_dir
    (Printf.sprintf "wal-%s-%d-%d" env.workload (Unix.getpid ()) rep)

(** Run [setup] [reps] times and return the median of its wall times with
    the state of the last run. All runs but the last happen in forked
    children, so the measured process starts its workload with the heap of
    exactly one set-up. *)
let repeated_setup env ~reps setup =
  let time_one rep =
    let dir = wal_dir env rep in
    Scenarios.Faults.rm_rf dir;
    let t0 = Meter.now_ns () in
    let state = setup dir in
    (float_of_int (Meter.now_ns () - t0) /. 1e9, dir, state)
  in
  let in_child rep =
    flush_all ();
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let code, msg =
        match time_one rep with
        | dt, dir, _ ->
          Scenarios.Faults.rm_rf dir;
          (0, Printf.sprintf "%.17g" dt)
        | exception e -> (1, Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      output_string oc msg;
      close_out oc;
      Unix._exit code
    | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let msg = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith ("set-up failed in a child process: " ^ msg));
      float_of_string msg
  in
  let child_times = List.init (reps - 1) in_child in
  let dt, dir, state = time_one reps in
  let times = Meter.series () in
  List.iter (Meter.add times) (dt :: child_times);
  (Meter.median times, dir, state)

let no_counters =
  { c_hits = 0; c_misses = 0; c_scanned = 0; c_returned = 0; c_minor = 0.0; c_major = 0; c_log = 0 }

let make_ctx env api wal_dir =
  {
    env;
    api;
    wal_dir;
    tracing = (if env.trace then Some (Tracing.create ~keep_ops:2000) else None);
    traced = false;
    block_left = block;
    phase = Warm;
    reads = Meter.series ();
    writes = Meter.series ();
    traced_reads = Meter.series ();
    traced_writes = Meter.series ();
    evolves = Meter.series ();
    migrations = Meter.series ();
    as_ofs = Meter.series ();
    checkpoints = Meter.series ();
    recoveries = Meter.series ();
    attempted = 0;
    failed = 0;
    timed_ops = 0;
    busy_ns = 0;
    user_writes = 0;
    traffic = no_counters;
    problems = [];
    marks = [ ("set-up", Meter.now_ns ()) ];
  }

(* --- traffic ---------------------------------------------------------- *)

let next_block ctx =
  match ctx.tracing with
  | None -> ()
  | Some tr ->
    ctx.block_left <- ctx.block_left - 1;
    if ctx.block_left = 0 then begin
      ctx.block_left <- block;
      ctx.traced <- not ctx.traced;
      if ctx.traced then Tracing.skip_to_now tr ctx.api
    end

(* Record one statement of the timed traffic that took [ns]. *)
let timed_statement ctx ~write ~traced ns =
  ctx.timed_ops <- ctx.timed_ops + 1;
  if write then ctx.user_writes <- ctx.user_writes + 1;
  let ms = Meter.ms_of_ns ns in
  (match write, traced with
  | false, false -> Meter.add ctx.reads ms
  | true, false -> Meter.add ctx.writes ms
  | false, true -> Meter.add ctx.traced_reads ms
  | true, true -> Meter.add ctx.traced_writes ms);
  if not traced then ctx.busy_ns <- ctx.busy_ns + ns;
  next_block ctx

(* One SQL statement through the application's entry point, [Api.exec_sql]
   (text in, parsed by the engine). *)
let statement ctx ~write sql =
  ctx.attempted <- ctx.attempted + 1;
  let traced = ctx.traced && ctx.phase = Timed in
  let w0 = if traced then M.now_ns () else 0 in
  let t0 = Meter.now_ns () in
  let r = match I.exec_sql ctx.api sql with v -> Ok v | exception e -> Error e in
  let ns = Meter.now_ns () - t0 in
  (match ctx.tracing with
  | Some tr when traced ->
    let dur = M.now_ns () - w0 in
    let traces =
      Tracing.operation tr ctx.api ~name:(if write then "write" else "read")
        ~start:w0 ~dur ()
    in
    if Result.is_ok r then Tracing.statement tr traces ~dur ~write
  | _ -> ());
  match r with
  | Error e ->
    ctx.failed <- ctx.failed + 1;
    problem ctx "failed: %s: %s" (clip sql) (Printexc.to_string e);
    None
  | Ok v ->
    if ctx.phase = Timed then timed_statement ctx ~write ~traced ns;
    Some v

(** A read; [None] when it failed (already counted). *)
let read ctx sql =
  match statement ctx ~write:false sql with
  | Some (Minidb.Exec.Rows rel) -> Some rel
  | Some _ ->
    problem ctx "read returned no rows: %s" (clip sql);
    None
  | None -> None

let write ctx sql = ignore (statement ctx ~write:true sql)

(* --- administrative operations ---------------------------------------- *)

(** Time one administrative operation on [api] (by default the workload's
    instance). [f] returns its result and the ledger's child spans
    ([(name, wall start ns, ns)]). *)
let admin ctx ?(api = ctx.api) ~name f =
  ctx.attempted <- ctx.attempted + 1;
  Option.iter (fun tr -> Tracing.skip_to_now tr api) ctx.tracing;
  let w0 = M.now_ns () in
  let t0 = Meter.now_ns () in
  match f () with
  | v, children ->
    let ns = Meter.now_ns () - t0 in
    let traces =
      match ctx.tracing with
      | Some tr ->
        Tracing.operation tr api ~name ~start:w0 ~dur:(M.now_ns () - w0) ~children
          ~always:true ()
      | None -> []
    in
    Some (v, ns, traces)
  | exception e ->
    ctx.failed <- ctx.failed + 1;
    problem ctx "failed: %s: %s" name (Printexc.to_string e);
    None

(* A BiDEL script: parsed, then executed statement by statement — exactly
   what [Api.evolve] does, with the two layers timed apart. *)
let bidel ctx api script =
  let w0 = M.now_ns () and t0 = Meter.now_ns () in
  let stmts = Bidel.Parser.script_of_string script in
  let w1 = M.now_ns () and t1 = Meter.now_ns () in
  List.iter (I.exec_bidel api) stmts;
  let w2 = M.now_ns () and t2 = Meter.now_ns () in
  Option.iter
    (fun tr -> Tracing.bidel tr ~parse_ns:(t1 - t0) ~exec_ns:(t2 - t1))
    ctx.tracing;
  [ ("bidel.parse", w0, w1 - w0); ("evolve.exec", w1, w2 - w1) ]

(** Evolve a schema version (or drop one) of [api]; returns the wall time
    in ns. *)
let evolve ctx api script =
  match admin ctx ~api ~name:"evolve" (fun () -> ((), bidel ctx api script)) with
  | Some ((), ns, _) -> ns
  | None -> 0

(** [MATERIALIZE targets] on [api]; returns the wall time in ns. *)
let materialize ctx api targets =
  match admin ctx ~api ~name:"migrate" (fun () -> (I.materialize api targets, [])) with
  | Some ((), ns, traces) ->
    Option.iter (fun tr -> Tracing.migration tr traces) ctx.tracing;
    ns
  | None -> 0

let checkpoint ctx =
  match admin ctx ~name:"checkpoint" (fun () -> (I.checkpoint ctx.api, [])) with
  | Some ((), ns, _) -> Meter.add ctx.checkpoints (Meter.ms_of_ns ns)
  | None -> ()

(** Sorted-row digest of a relation: what every answer check compares. *)
let digest (rel : Minidb.Exec.relation) =
  rel.Minidb.Exec.rel_rows
  |> List.map (fun row ->
         String.concat "|" (Array.to_list (Array.map Minidb.Value.to_literal row)))
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(** [sql] as of [changeset], checked against the digest the live instance
    gave at that changeset; returns the wall time in ns. *)
let as_of ctx ~changeset ~expected sql =
  match
    admin ctx ~name:"as_of" (fun () -> (I.as_of ctx.api ~changeset sql, []))
  with
  | Some (rel, ns, _) ->
    check ctx (digest rel = expected) "AS OF %d differs from the live answer: %s"
      changeset (clip sql);
    ns
  | None -> 0

(** Digest of a query run outside the measurement (bookkeeping). *)
let answer api sql =
  let m = (I.database api).Minidb.Database.metrics in
  M.suspend m;
  Fun.protect ~finally:(fun () -> M.resume m) (fun () -> digest (I.query api sql))

let copy_dir src dst =
  Minidb.Wal.mkdir_p dst;
  Array.iter
    (fun name ->
      let data = In_channel.with_open_bin (Filename.concat src name) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* --- the administrative rounds ---------------------------------------- *)

(** The administrative work every workload does between its stretches of
    traffic, at its own scale, so every end-to-end metric exists on every
    workload. *)
type rounds = {
  evolves : int;  (** evolve-and-drop pairs per round *)
  evolve_from : string;  (** version the evolutions derive from *)
  evolve_table : string;  (** table of [evolve_from] that gains a column *)
  materialize : string list;  (** each round's MATERIALIZE targets ... *)
  restore : string list;  (** ... and the targets that move the data back *)
  answers : I.t -> string;
      (** digest of answers no migration may change, over every version *)
  as_of_query : string;
  tail_write : ctx -> unit;  (** one write of the workload's mix *)
}

let tail_writes = 20

(* AS OF, recovery and MATERIALIZE each build or move a whole instance.
   They start from a collected heap, so that whether a major collection the
   work before them left unfinished lands inside them does not decide their
   time: without this, AS OF on tasky_oltp read about 250 ms or about 350 ms
   from one run to the next. *)
let collect () = Gc.full_major ()

(* On [api]: [e.evolves] times evolving a version and dropping it, then a
   MATERIALIZE round trip (to [e.materialize] and back), which leaves the
   schema and the materialization as it found them. With [check], every
   version's answers are checked across both moves. *)
let schema_work ctx api e ~round ~check:checked =
  for i = 1 to e.evolves do
    let v = Printf.sprintf "Ledger%d" (((round - 1) * e.evolves) + i) in
    let create =
      evolve ctx api
        (Printf.sprintf "CREATE SCHEMA VERSION %s FROM %s WITH ADD COLUMN %s AS 0 INTO %s;" v
           e.evolve_from (String.lowercase_ascii v) e.evolve_table)
    in
    let drop = evolve ctx api (Printf.sprintf "DROP SCHEMA VERSION %s;" v) in
    Meter.add ctx.evolves (Meter.ms_of_ns (create + drop))
  done;
  let before = if checked then e.answers api else "" in
  let moved targets =
    if checked then
      check ctx (e.answers api = before) "answers changed across MATERIALIZE %s"
        (String.concat "," targets)
  in
  collect ();
  let there = materialize ctx api e.materialize in
  moved e.materialize;
  let back = materialize ctx api e.restore in
  moved e.restore;
  Meter.add ctx.migrations (float_of_int (there + back) /. 1e9)

(** One round: a checkpoint, a fixed tail of writes, a query AS OF the
    checkpoint (checked against the live answer there) and a recovery from
    a copy of the log, as a restart after a crash would do it; then, on
    the recovered instance, the evolutions and the MATERIALIZE round trip,
    after which that instance is dropped.

    So the workload's own log holds its traffic and nothing else: what a
    checkpoint replays, its schema history, is the same in every round, and
    so is the cost of AS OF and of recovery. Had the evolutions run on the
    workload's instance, every later checkpoint would replay all of them.
    The first round checks every version's answers across both moves, the
    last compares the recovered state with the live one. *)
let admin_round ctx e ~round ~last =
  checkpoint ctx;
  let changeset = I.current_changeset ctx.api in
  let expected = answer ctx.api e.as_of_query in
  for _ = 1 to tail_writes do
    e.tail_write ctx
  done;
  collect ();
  Meter.add ctx.as_ofs (Meter.ms_of_ns (as_of ctx ~changeset ~expected e.as_of_query));
  (* this also collects the instance AS OF reconstituted, so the heap's
     high-water mark holds two instances and not three *)
  collect ();
  let dir = ctx.wal_dir ^ "-recovered" in
  Scenarios.Faults.rm_rf dir;
  copy_dir ctx.wal_dir dir;
  (match admin ctx ~name:"recover" (fun () -> (I.recover dir, [])) with
  | Some (recovered, ns, _) ->
    Meter.add ctx.recoveries (float_of_int ns /. 1e9);
    Option.iter (fun tr -> Tracing.recovery tr recovered) ctx.tracing;
    if last then
      check ctx (I.dump recovered = I.dump ctx.api) "recovered state differs from the live state";
    (* recovery replays without static analysis; the schema work runs with
       the shipped default, as on the workload's own instance *)
    I.set_strict recovered true;
    schema_work ctx recovered e ~round ~check:(round = 1);
    I.detach_wal recovered
  | None -> ());
  Scenarios.Faults.rm_rf dir

(* --- the timed phase -------------------------------------------------- *)

let counters ctx =
  let hits, misses = I.cache_stats ctx.api in
  let scanned, returned =
    List.fold_left
      (fun (s, r) (_, (o : M.object_stats)) ->
        (s + o.M.rows_scanned, r + o.M.rows_returned))
      (0, 0)
      (M.object_stats (I.database ctx.api).Minidb.Database.metrics)
  in
  let g = Gc.quick_stat () in
  {
    c_hits = hits;
    c_misses = misses;
    c_scanned = scanned;
    c_returned = returned;
    c_minor = g.Gc.minor_words;
    c_major = g.Gc.major_collections;
    c_log =
      (match Unix.stat (Minidb.Wal.log_file ctx.wal_dir) with
      | st -> st.Unix.st_size
      | exception Unix.Unix_error _ -> 0);
  }

(* [acc] plus what grew from [a] to [b]. *)
let grown acc a b =
  {
    c_hits = acc.c_hits + b.c_hits - a.c_hits;
    c_misses = acc.c_misses + b.c_misses - a.c_misses;
    c_scanned = acc.c_scanned + b.c_scanned - a.c_scanned;
    c_returned = acc.c_returned + b.c_returned - a.c_returned;
    c_minor = acc.c_minor +. b.c_minor -. a.c_minor;
    c_major = acc.c_major + b.c_major - a.c_major;
    c_log = acc.c_log + b.c_log - a.c_log;
  }

(** The untimed warm-up, then the timed phase: [rounds] stretches of
    traffic ([segment]), each followed by an administrative round. Spread
    over the phase, the rounds meet the machine in more than one of its
    moods, as the traffic does. Each stretch starts from a collected heap,
    and the counters grow over the traffic only. Returns the major heap's
    high-water mark in MB. *)
let run_phases ctx ~warm ~segment ~rounds e =
  ctx.phase <- Warm;
  warm ();
  mark ctx "warm-up";
  for round = 1 to rounds do
    collect ();
    Option.iter (fun tr -> Tracing.skip_to_now tr ctx.api) ctx.tracing;
    ctx.phase <- Timed;
    let before = counters ctx in
    segment ();
    ctx.traffic <- grown ctx.traffic before (counters ctx);
    ctx.phase <- Admin;
    admin_round ctx e ~round ~last:(round = rounds)
  done;
  mark ctx "timed";
  I.detach_wal ctx.api;
  Scenarios.Faults.rm_rf ctx.wal_dir;
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* --- the result ------------------------------------------------------- *)

(** The highest percentile with at least ten samples beyond it, for a
    sample of [n]: what the workload's fixed tail percentile is chosen
    against. *)
let tail_supported n = 1.0 -. (10.0 /. float_of_int (max 1 n))

let e2e ctx ~setup_s ~tail ~top_heap_mb =
  let tail_of s =
    if tail > tail_supported (Meter.count s) then
      Printf.printf "  warning: only %d samples, so p%g has fewer than 10 beyond it\n"
        (Meter.count s) (100.0 *. tail);
    Meter.quantile s tail
  in
  [
    ("setup_s", setup_s, "s");
    ( "ops_per_s",
      float_of_int (Meter.count ctx.reads + Meter.count ctx.writes)
      /. (float_of_int (max 1 ctx.busy_ns) /. 1e9),
      "1/s" );
    ("read_p50_ms", Meter.median ctx.reads, "ms");
    ("read_tail_ms", tail_of ctx.reads, "ms");
    ("write_p50_ms", Meter.median ctx.writes, "ms");
    ("write_tail_ms", tail_of ctx.writes, "ms");
    ("evolve_ms", Meter.median ctx.evolves, "ms");
    ("migrate_s", Meter.median ctx.migrations, "s");
    ("as_of_ms", Meter.median ctx.as_ofs, "ms");
    ("recover_s", Meter.median ctx.recoveries, "s");
    ( "log_bytes_per_write",
      float_of_int ctx.traffic.c_log /. float_of_int (max 1 ctx.user_writes),
      "B" );
    ("peak_heap_mb", top_heap_mb, "MB");
  ]

(* Tracing overhead: traced against untraced statements, per statement
   class, weighted by how many statements each class had. *)
let overhead ctx =
  let weighted f =
    List.fold_left
      (fun acc (traced, plain) ->
        let n = Meter.count traced + Meter.count plain in
        if Meter.count traced = 0 || Meter.count plain = 0 then acc
        else acc +. (float_of_int n *. f traced plain))
      0.0
      [ (ctx.traced_reads, ctx.reads); (ctx.traced_writes, ctx.writes) ]
  in
  let traced = weighted (fun t _ -> Meter.median t)
  and plain = weighted (fun _ p -> Meter.median p) in
  if plain = 0.0 then 0.0 else (traced /. plain) -. 1.0

let per_layer ctx tr ~top_heap_mb =
  let t = ctx.traffic in
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  let ops = max 1 ctx.timed_ops in
  Tracing.metrics_of tr
  @ [
      ("exec.rows_examined_per_row", ratio t.c_scanned t.c_returned, "count");
      ("viewcache.hit_ratio", ratio t.c_hits (t.c_hits + t.c_misses), "frac");
      ("wal.checkpoint_ms", Meter.median ctx.checkpoints, "ms");
      ("gc.minor_words_per_op", t.c_minor /. float_of_int ops, "count");
      ("gc.major_per_kop", 1000.0 *. ratio t.c_major ops, "count");
      ("gc.top_heap_mb", top_heap_mb, "MB");
      ("trace.overhead_frac", overhead ctx, "frac");
    ]

let print_metric (name, v, unit) extra =
  Printf.printf "  %-28s %14.6g %-6s%s\n" name v unit extra

(** Print every metric by name with its unit, then the result as the last
    line; the exit code is 0 only when every answer check passed and no
    operation failed. *)
let finish ctx ~setup_s ~tail ~top_heap_mb =
  Printf.printf "%s (seed %d, tail p%g): %d operations, %d failed\n" ctx.env.workload
    ctx.env.seed (100.0 *. tail) ctx.attempted ctx.failed;
  let metrics =
    match ctx.tracing with
    | Some tr ->
      Tracing.print_layers tr;
      let path =
        Filename.concat ctx.env.work_dir
          (Printf.sprintf "trace-%s-seed%d.jsonl" ctx.env.workload ctx.env.seed)
      in
      Tracing.write_jsonl tr path;
      Printf.printf "  spans of the first %d traffic operations and every administrative one: %s\n"
        tr.Tracing.kept_ops path;
      per_layer ctx tr ~top_heap_mb
    | None -> e2e ctx ~setup_s ~tail ~top_heap_mb
  in
  let rounds =
    [
      ("evolve_ms", ctx.evolves);
      ("migrate_s", ctx.migrations);
      ("as_of_ms", ctx.as_ofs);
      ("recover_s", ctx.recoveries);
    ]
  in
  let samples name =
    match name, List.assoc_opt name rounds with
    | _, Some s -> Printf.sprintf "  (median of %d)" (Meter.count s)
    | ("read_p50_ms" | "read_tail_ms"), None -> Printf.sprintf "  (n=%d)" (Meter.count ctx.reads)
    | ("write_p50_ms" | "write_tail_ms"), None ->
      Printf.sprintf "  (n=%d)" (Meter.count ctx.writes)
    | _ -> ""
  in
  List.iter (fun ((name, _, _) as m) -> print_metric m (samples name)) metrics;
  let _, wall =
    List.fold_left
      (fun (prev, acc) (name, t) ->
        (t, Printf.sprintf "%s %.1f s" name (float_of_int (t - prev) /. 1e9) :: acc))
      (started, []) (List.rev ctx.marks)
  in
  Printf.printf "  wall clock: %s\n" (String.concat ", " (List.rev wall));
  let problems = List.rev ctx.problems in
  List.iteri
    (fun i p -> if i < 20 then Printf.eprintf "%s: CHECK FAILED: %s\n%!" ctx.env.workload p)
    problems;
  let correct = problems = [] in
  print_endline
    (Meter.json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int ctx.attempted);
         ("failed", string_of_int ctx.failed);
         ( "metrics",
           Meter.json_object
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Meter.json_object
                      [ ("value", Meter.json_float v); ("unit", Meter.json_string unit) ] ))
                metrics) );
       ]);
  if correct then 0 else 1
