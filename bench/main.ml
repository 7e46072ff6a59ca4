(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8). By default all experiments run at a scaled-down
   size that finishes in a few minutes; --full uses paper-scale parameters.

   Usage:
     dune exec bench/main.exe                 # everything, scaled down
     dune exec bench/main.exe -- --only fig8,table3
     dune exec bench/main.exe -- --full       # paper-scale parameters

   When several experiments are selected, each runs in a child process of
   its own (this executable re-run with --only <name> and the same scale
   flag), so no experiment measures on the heap and caches an earlier one
   left behind; the run fails when any child fails. *)

let all_experiments : (string * (Experiments.scale -> unit)) list =
  [
    ("table1", fun _ -> Experiments.table1 ());
    ("table2", fun _ -> Experiments.table2 ());
    ("table3", fun _ -> Experiments.table3 ());
    ("table4", fun _ -> Experiments.table4 ());
    ("gen_time", fun _ -> Experiments.generation_time ());
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("fig10", Experiments.fig10);
    ("fig11", Experiments.fig11);
    ("fig12", Experiments.fig12);
    ("fig13", Experiments.fig13);
    ("formal", fun _ -> Experiments.formal ());
    ("ablation_pushdown", Experiments.ablation_pushdown);
    ("ablation_chain", Experiments.ablation_chain);
    ("telemetry", fun scale -> ignore (Experiments.telemetry_overhead scale));
    ("wal", fun scale -> ignore (Experiments.wal scale));
    ("batch", fun scale -> ignore (Experiments.batch scale));
    ("obs", fun scale -> ignore (Experiments.obs scale));
  ]

(* Re-run this executable on experiment [name] alone; true when it
   succeeds. *)
let run_isolated name scale_flags =
  Fmt.pr "%!";
  let argv = Sys.executable_name :: "--only" :: name :: scale_flags in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
      Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let run only full bechamel smoke json5 json8 json9 json10 =
  if bechamel then Micro.run ()
  else
  let scale =
    if full then Experiments.paper_scale
    else if smoke then Experiments.smoke_scale
    else Experiments.default_scale
  in
  if json5 then
    ignore (Experiments.telemetry_overhead ~out:"BENCH_PR5.json" scale)
  else if json8 then
    ignore (Experiments.wal ~out:"BENCH_PR8.json" scale)
  else if json9 then
    ignore (Experiments.batch ~out:"BENCH_PR9.json" scale)
  else if json10 then
    ignore (Experiments.obs ~out:"BENCH_PR10.json" scale)
  else
  let selected =
    match only with
    | [] -> all_experiments
    | names ->
      List.filter (fun (name, _) -> List.mem name names) all_experiments
  in
  if selected = [] then begin
    Fmt.epr "no experiment selected; available: %s@."
      (String.concat ", " (List.map fst all_experiments));
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  match selected with
  | [ (name, f) ] ->
    f scale;
    Fmt.pr "[%s done in %.1f s]@." name (Unix.gettimeofday () -. t0)
  | _ ->
    let flags =
      if full then [ "--full" ] else if smoke then [ "--smoke" ] else []
    in
    let failed =
      List.filter_map
        (fun (name, _) -> if run_isolated name flags then None else Some name)
        selected
    in
    Fmt.pr "@.total: %.1f s@." (Unix.gettimeofday () -. t0);
    if failed <> [] then begin
      Fmt.epr "failed experiments: %s@." (String.concat ", " failed);
      exit 1
    end

open Cmdliner

let bechamel =
  let doc = "Run the Bechamel micro-benchmarks instead of the macro harness." in
  Arg.(value & flag & info [ "bechamel" ] ~doc)

let only =
  let doc = "Comma-separated experiment names (default: all)." in
  Arg.(value & opt (list string) [] & info [ "only" ] ~doc)

let full =
  let doc = "Use paper-scale parameters (much slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let smoke =
  let doc = "Use tiny CI-smoke parameters (seconds overall)." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json5 =
  let doc =
    "Write the telemetry-overhead baseline to BENCH_PR5.json (the PR4 read \
     suite measured with telemetry collection enabled vs disabled) instead \
     of running the figure harness."
  in
  Arg.(value & flag & info [ "json-pr5" ] ~doc)

let json8 =
  let doc =
    "Write the durability baseline to BENCH_PR8.json (the TasKy insert \
     workload with and without a write-ahead log attached, plus recovery \
     time with and without a checkpoint) instead of running the figure \
     harness."
  in
  Arg.(value & flag & info [ "json-pr8" ] ~doc)

let json9 =
  let doc =
    "Write the batch-executor baseline to BENCH_PR9.json (cold reads through \
     the compiled columnar executor vs the row interpreter, plus per-version \
     Wikimedia read latency under both) instead of running the figure \
     harness."
  in
  Arg.(value & flag & info [ "json-pr9" ] ~doc)

let json10 =
  let doc =
    "Write the observability baseline to BENCH_PR10.json (cold reads with \
     hierarchical tracing collecting vs switched off, profile-mode cost, \
     trace-tree and OpenMetrics rendering time) instead of running the \
     figure harness."
  in
  Arg.(value & flag & info [ "json-pr10" ] ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the InVerDa paper" in
  Cmd.v (Cmd.info "inverda-bench" ~doc)
    Term.(
      const run $ only $ full $ bechamel $ smoke $ json5 $ json8 $ json9
      $ json10)

let () = exit (Cmd.eval cmd)
