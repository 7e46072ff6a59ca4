(* One workload of the benchmark ledger, run in this process:

     ledger.exe --workload W [--seed N] [--trace 0|1] [--smoke] [--work-dir DIR]

   prints every metric by name with its unit and, as its last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics, or with --trace 1 the per-layer ones. The exit code is 0 only
   when every answer check passed. ledger/run.py builds this program and
   runs each workload in its own process.

   Every count below is fixed, so that two builds are measured on the same
   operations. On a 2-vCPU Xeon virtual machine they give timed phases of 14
   to 29 seconds, as fast or as slow as the shared machine runs at the time
   (BENCHMARK.json's run_seconds, 20, is about their middle), and whole runs
   of 17 to 37 seconds, so that twenty-odd runs of every workload fit in under
   an hour; BENCHMARK.json repeats them in each workload's "why". *)

let usage =
  "ledger.exe --workload tasky_oltp|tasky_scan|wiki_history \
   [--seed N] [--trace 0|1] [--smoke] [--work-dir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let smoke = ref false and work_dir = ref "ledger/_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload to run");
      ("--seed", Arg.Set_int seed, "input generator seed (default 1)");
      ("--trace", Arg.Set_int trace, "1: report per-layer metrics from a traced run");
      ("--smoke", Arg.Set smoke, "tiny scale, every check");
      ("--work-dir", Arg.Set_string work_dir, "directory for logs and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Minidb.Wal.mkdir_p !work_dir;
  let env =
    { Harness.workload = !workload; seed = !seed; trace = !trace = 1; work_dir = !work_dir }
  in
  (* set-up time is an end-to-end metric, reported as the median of three;
     a traced run reports per-layer metrics only and sets up once *)
  let reps = if !smoke || env.Harness.trace then 1 else 3 in
  let size full tiny = if !smoke then tiny else full in
  let code =
    match !workload with
    | "tasky_oltp" ->
      Tasky_traffic.oltp env ~tasks:(size 50_000 300) ~reps ~warm:(size 8 1)
        ~decks:(size 40 4) ~rounds:(size 4 2)
    | "tasky_scan" ->
      Tasky_traffic.scan env ~tasks:(size 50_000 300) ~reps ~warm:(size 2 2)
        ~blocks:(size 4 2) ~rounds:(size 5 2)
    | "wiki_history" ->
      (* the smoke run also checks the full run's history *)
      Wiki_traffic.run env ~versions:(size 30 20) ~pages:(size 14_359 200)
        ~links:(size 50_000 500) ~materialize:"v006" ~reps ~warm:1 ~decks:(size 2 1)
        ~rounds:(size 4 2) ~check_versions:(size [] [ 20; 30 ])
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\nusage: " ^ usage);
      2
  in
  exit code
