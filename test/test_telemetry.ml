(* Telemetry: the observed workload profile must reproduce the traffic a
   replayed workload actually generated — under every materialization — and
   feeding it to the advisor must agree with the hand-built profile the
   advisor was designed around (Section 8.2). Plus the span ring, stats
   documents, EXPLAIN output and the on/off switch. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module T = Inverda.Telemetry
module W = Scenarios.Workload
module M = Minidb.Metrics

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let demo_shares = W.[ (V_tasky, 0.2); (V_tasky2, 0.5); (V_do, 0.3) ]

(* --- observed profile vs. replay ground truth ------------------------------- *)

(* Replay a mixed workload and compare the observed per-version weights with
   the per-version statement counts the replay itself reports. The two are
   computed independently (telemetry attributes statements by the schema
   qualifier they name; the replay counts executed operations per slot), so
   they must agree exactly. *)
let check_profile_matches_replay t ~mix ~ops label =
  I.reset_telemetry t;
  let r = W.make_runner (I.database t) in
  let counts = W.replay_profile r ~shares:demo_shares ~mix ~ops in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check bool) (label ^ ": some ops executed") true (total > 0);
  let profile = I.observed_profile t in
  List.iter
    (fun (v, c) ->
      let name = W.version_name v in
      let weight =
        match List.assoc_opt name profile with Some w -> w | None -> 0.0
      in
      Alcotest.(check (float 1e-9))
        (Fmt.str "%s: weight of %s" label name)
        (float_of_int c /. float_of_int total)
        weight)
    counts

let test_profile_all_materializations () =
  let t = Scenarios.Tasky.setup_full ~tasks:30 () in
  let mats = G.enumerate_materializations (I.genealogy t) in
  Alcotest.(check int) "five materializations" 5 (List.length mats);
  List.iter
    (fun mat ->
      I.set_materialization t mat;
      let label =
        Fmt.str "mat {%s}" (String.concat "," (List.map string_of_int mat))
      in
      check_profile_matches_replay t ~mix:W.read_only ~ops:200 label)
    mats

let test_profile_mixed_workload () =
  (* writes cascade through triggers; only the top-level statement counts *)
  let t = Scenarios.Tasky.setup_full ~tasks:30 () in
  check_profile_matches_replay t ~mix:W.paper_mix ~ops:300 "paper mix"

(* --- advisor agreement ------------------------------------------------------- *)

let mat_of (r : Inverda.Advisor.recommendation) = r.Inverda.Advisor.materialization

let test_advise_observed_agrees_tasky () =
  let t = Scenarios.Tasky.setup_full ~tasks:30 () in
  I.reset_telemetry t;
  let r = W.make_runner (I.database t) in
  ignore (W.replay_profile r ~shares:demo_shares ~mix:W.paper_mix ~ops:400);
  let hand = [ ("TasKy", 0.2); ("TasKy2", 0.5); ("Do!", 0.3) ] in
  match (I.advise t hand, I.advise_observed t) with
  | Some h, Some o ->
    Alcotest.(check (list int))
      "observed traffic reproduces the hand-profile recommendation"
      (mat_of h) (mat_of o)
  | _ -> Alcotest.fail "advisor returned no recommendation"

let test_advise_observed_agrees_wikimedia () =
  let api, names = Scenarios.Wikimedia.build ~versions:6 () in
  let n = Array.length names in
  let v_hot = names.(n - 1) and v_cold = names.(0) in
  Scenarios.Wikimedia.load api ~version:names.(n / 2) ~pages:12 ~links:20;
  I.reset_telemetry api;
  let db = I.database api in
  (* 70 statements on the newest version, 30 on the oldest *)
  for i = 1 to 35 do
    ignore
      (Minidb.Engine.query db
         (Scenarios.Wikimedia.query_page_by_title ~version:v_hot ~i:(i mod 12)));
    ignore
      (Minidb.Engine.query db
         (Scenarios.Wikimedia.query_link_count ~version:v_hot))
  done;
  for i = 1 to 30 do
    ignore
      (Minidb.Engine.query db
         (Scenarios.Wikimedia.query_page_by_title ~version:v_cold ~i:(i mod 12)))
  done;
  let profile = I.observed_profile api in
  Alcotest.(check (float 1e-9)) "hot weight" 0.7 (List.assoc v_hot profile);
  Alcotest.(check (float 1e-9)) "cold weight" 0.3 (List.assoc v_cold profile);
  let hand = [ (v_hot, 0.7); (v_cold, 0.3) ] in
  match (I.advise api hand, I.advise_observed api) with
  | Some h, Some o ->
    Alcotest.(check (list int))
      "observed traffic reproduces the hand-profile recommendation"
      (mat_of h) (mat_of o)
  | _ -> Alcotest.fail "advisor returned no recommendation"

(* --- the switch and reset ---------------------------------------------------- *)

let test_disabled_counts_nothing () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  I.set_telemetry t false;
  Alcotest.(check bool) "reports disabled" false (I.telemetry_enabled t);
  ignore (I.query_rows t "SELECT * FROM TasKy.Task");
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Zed', 'zz', 1)");
  Alcotest.(check (list (pair string (float 0.0)))) "empty profile" []
    (I.observed_profile t);
  Alcotest.(check int) "no spans" 0 (List.length (I.recent_spans t));
  I.set_telemetry t true;
  ignore (I.query_rows t "SELECT * FROM TasKy.Task");
  let spans = I.recent_spans t in
  Alcotest.(check bool) "collection resumes" true (spans <> []);
  Alcotest.(check int) "one statement, one trace root" 1
    (List.length (List.filter (fun (sp : M.span) -> sp.M.sp_parent < 0) spans));
  I.reset_telemetry t;
  Alcotest.(check int) "reset clears spans" 0 (List.length (I.recent_spans t));
  Alcotest.(check (list (pair string (float 0.0)))) "reset clears profile" []
    (I.observed_profile t)

(* --- spans -------------------------------------------------------------------- *)

let test_span_ring_bounded_and_monotone () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  let ops = (2 * M.span_capacity) + 7 in
  for _ = 1 to ops do
    ignore (I.query_rows t "SELECT task FROM TasKy.Task WHERE prio = 1")
  done;
  let spans = I.recent_spans t in
  Alcotest.(check int) "ring holds exactly its capacity" M.span_capacity
    (List.length spans);
  let seqs = List.map (fun sp -> sp.M.sp_seq) spans in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a + 1 = b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "consecutive sequence numbers" true (monotone seqs);
  (* the newest span is the root of the last statement ever recorded:
     children close before their parent, so the root lands in the ring last *)
  let recorded = M.total_spans (I.database t).Minidb.Database.metrics in
  Alcotest.(check int) "newest span has seq = total - 1" (recorded - 1)
    (List.nth seqs (List.length seqs - 1));
  let sp = List.hd (I.recent_spans ~limit:1 t) in
  Alcotest.(check string) "kind" "query" sp.M.sp_kind;
  Alcotest.(check (list string)) "targets" [ "tasky.task" ] sp.M.sp_targets;
  Alcotest.(check bool) "duration recorded" true (sp.M.sp_ns >= 0)

let test_span_records_trigger_cascade () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  ignore
    (I.exec_sql t
       "INSERT INTO Do!.Todo (author, task) VALUES ('Zed', 'cascade')");
  let sp = List.hd (I.recent_spans ~limit:1 t) in
  Alcotest.(check string) "kind" "insert" sp.M.sp_kind;
  Alcotest.(check bool) "trigger hops counted" true (sp.M.sp_trigger_hops > 0)

(* --- stats documents ---------------------------------------------------------- *)

let test_stats_documents () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  ignore (I.query_rows t "SELECT task FROM TasKy2.Task");
  let js = I.stats_json t in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fmt.str "stats_json has %S" k) true (contains js k))
    [
      "enabled"; "observed_statements"; "engine_statements"; "trigger_hops";
      "cache"; "versions"; "table_versions";
      "observed_profile"; "read_latency_ns"; "write_latency_ns"; "spans";
      "latency_quantiles_ns"; "\"p50\""; "\"p95\""; "\"p99\"";
    ];
  Alcotest.(check bool) "one observed statement" true
    (contains js "\"observed_statements\":1,");
  let txt = I.stats_text t in
  Alcotest.(check bool) "text mentions TasKy2" true (contains txt "TasKy2");
  Alcotest.(check bool) "text shows quantiles" true (contains txt "p95")

(* --- EXPLAIN ------------------------------------------------------------------- *)

let test_explain_select () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let out = I.explain t "SELECT task FROM TasKy2.Task" in
  Alcotest.(check bool) "identifies the version view" true
    (contains out "version view");
  Alcotest.(check bool) "names the version" true (contains out "TasKy2");
  Alcotest.(check bool) "shows a physical table" true (contains out "d!");
  (* Do!.Todo is two SMOs from the physical Task table (SPLIT, then DROP
     COLUMN): its installed view stack is one view per SMO *)
  let stack =
    I.explain t "SELECT task FROM Do!.Todo"
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ "view"; name ] -> Some name
           | _ -> None)
  in
  let position name =
    match List.find_index (String.equal name) stack with
    | Some i -> i
    | None -> Alcotest.failf "%s missing from the view stack" name
  in
  Alcotest.(check bool) "tv!5!todo above tv!3!todo" true
    (position "tv!5!todo" < position "tv!3!todo");
  Alcotest.(check bool) "shows the access path" true
    (contains out "genealogy access path");
  Alcotest.(check bool) "prints the compiled plan" true
    (contains out "plan:" && contains out "select via");
  let js = I.explain_json t "SELECT task FROM TasKy2.Task" in
  Alcotest.(check bool) "json kind" true (contains js "\"kind\":\"query\"");
  Alcotest.(check bool) "json targets" true (contains js "tasky2.task");
  Alcotest.(check bool) "json access paths come off the plan" true
    (contains js "{\"object\":\"tasky2.task\",\"path\":\"computed\"}");
  (* a SELECT that cannot compile cannot be explained either: every EXPLAIN
     surface raises the executor's own error, exactly as executing it does *)
  List.iter
    (fun sql ->
      let expected =
        match I.query_rows t sql with
        | _ -> Alcotest.failf "%s: executing must fail" sql
        | exception Minidb.Exec.Exec_error msg -> msg
      in
      List.iter
        (fun (surface, f) ->
          match f t sql with
          | _ -> Alcotest.failf "%s: %s must fail" sql surface
          | exception Minidb.Exec.Exec_error msg ->
            Alcotest.(check string) (sql ^ ": " ^ surface) expected msg)
        [
          ("explain", I.explain);
          ("explain_json", I.explain_json);
          ("explain_analyze", I.explain_analyze);
        ])
    [
      "SELECT task FROM NoSuch.Task";
      "SELECT nope FROM TasKy.Task WHERE prio = 1";
    ]

let test_explain_insert_cascade () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let out = I.explain t "INSERT INTO Do!.Todo (author, task) VALUES ('a', 'b')" in
  Alcotest.(check bool) "shows the trigger cascade" true
    (contains out "trigger cascade");
  Alcotest.(check bool) "shows a fired trigger" true (contains out "trg!")

(* --- hierarchical traces -------------------------------------------------------- *)

let test_trace_invariants () =
  let t = Scenarios.Tasky.setup_full ~tasks:8 () in
  I.reset_telemetry t;
  ignore (I.query_rows t "SELECT author, task FROM Do!.Todo");
  ignore
    (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Zed', 'tr')");
  ignore (I.query_rows t "SELECT task FROM TasKy2.Task");
  let traces = I.recent_traces t in
  Alcotest.(check bool) "at least three traces" true (List.length traces >= 3);
  let ids = List.map (fun tr -> tr.M.tr_root.M.sp_trace) traces in
  Alcotest.(check int) "unique trace ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun tr ->
      let root = tr.M.tr_root in
      List.iter
        (fun (sp : M.span) ->
          Alcotest.(check int) "span belongs to its trace" root.M.sp_trace
            sp.M.sp_trace;
          if sp.M.sp_parent >= 0 then
            match
              List.find_opt
                (fun (p : M.span) -> p.M.sp_id = sp.M.sp_parent)
                tr.M.tr_spans
            with
            | None -> Alcotest.fail "orphaned child span"
            | Some p ->
              (* the child's interval lies within the parent's *)
              Alcotest.(check bool) "child starts after its parent" true
                (sp.M.sp_start_ns >= p.M.sp_start_ns);
              Alcotest.(check bool) "child ends before its parent" true
                (sp.M.sp_start_ns + sp.M.sp_ns
                <= p.M.sp_start_ns + p.M.sp_ns))
        tr.M.tr_spans)
    traces

let test_failed_statement_leaves_no_spans () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  ignore (I.query_rows t "SELECT task FROM TasKy.Task");
  let m = (I.database t).Minidb.Database.metrics in
  let seq0 = m.M.span_seq in
  let held0 = List.length (I.recent_spans t) in
  (match I.query_rows t "SELECT nosuch FROM TasKy.Task" with
  | _ -> Alcotest.fail "unknown column must raise"
  | exception _ -> ());
  Alcotest.(check int) "span sequence rewound to the trace start" seq0
    m.M.span_seq;
  Alcotest.(check int) "no spans recorded by the failed statement" held0
    (List.length (I.recent_spans t));
  (* collection is live again for the next statement *)
  ignore (I.query_rows t "SELECT task FROM TasKy.Task");
  Alcotest.(check bool) "collection live after the abort" true
    (m.M.span_seq > seq0)

(* Overrun the ring with multi-span statements so it wraps mid-stream: every
   trace [recent_traces] still surfaces must be whole — all parent references
   resolve inside it and its root's first sequence number is still held. *)
let test_ring_wrap_no_orphans () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  for _ = 1 to M.span_capacity do
    ignore (I.query_rows t "SELECT author, task FROM Do!.Todo")
  done;
  let spans = I.recent_spans t in
  Alcotest.(check int) "ring full" M.span_capacity (List.length spans);
  let traces = I.recent_traces t in
  Alcotest.(check bool) "complete traces survive the wrap" true (traces <> []);
  let oldest_seq = (List.hd spans).M.sp_seq in
  List.iter
    (fun tr ->
      Alcotest.(check bool) "no truncated trace surfaces" true
        (tr.M.tr_root.M.sp_first_seq >= oldest_seq);
      List.iter
        (fun (sp : M.span) ->
          if sp.M.sp_parent >= 0 then
            Alcotest.(check bool) "every parent reference resolves" true
              (List.exists
                 (fun (p : M.span) -> p.M.sp_id = sp.M.sp_parent)
                 tr.M.tr_spans))
        tr.M.tr_spans)
    traces

(* --- OpenMetrics exposition ------------------------------------------------------ *)

let test_openmetrics_document () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  I.reset_telemetry t;
  ignore (I.query_rows t "SELECT task FROM TasKy2.Task");
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('a', 'b', 1)");
  let om = I.metrics_text t in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fmt.str "openmetrics has %S" k) true (contains om k))
    [
      "# TYPE inverda_statements_total counter";
      "# TYPE inverda_read_latency_seconds histogram";
      "inverda_version_reads_total{version=\"TasKy2\"} 1";
      "inverda_version_writes_total{version=\"TasKy\"} 1";
      "le=\"+Inf\"";
      "inverda_read_latency_seconds_sum";
      "inverda_write_latency_seconds_count 1";
    ];
  let n = String.length om in
  Alcotest.(check bool) "terminated by # EOF" true
    (n >= 6 && String.sub om (n - 6) 6 = "# EOF\n")

(* --- EXPLAIN ANALYZE: actual rows equal the attributed count ---------------------- *)

let analyze_queries =
  [|
    "SELECT * FROM TasKy.Task";
    "SELECT task FROM TasKy.Task WHERE prio = 1";
    "SELECT author, task FROM Do!.Todo";
    "SELECT task, prio FROM TasKy2.Task";
    "SELECT name FROM TasKy2.Author";
    "SELECT t.task, t.prio, a.name FROM TasKy2.Task t JOIN TasKy2.Author a \
     ON t.author = a.p WHERE t.prio = 1";
    "SELECT author, COUNT(*) FROM TasKy2.Task GROUP BY author";
    "SELECT task, prio, author FROM TasKy2.Task WHERE p = 3";
    (* expression subqueries: a decorrelated EXISTS reading a view once, and
       an IN subquery that reads no outer column, evaluated once *)
    "SELECT name FROM TasKy2.Author a WHERE EXISTS (SELECT * FROM TasKy2.Task \
     t WHERE t.author = a.p)";
    "SELECT name FROM TasKy2.Author a WHERE a.p IN (SELECT author FROM \
     TasKy2.Task WHERE prio = 1)";
    (* first-row mode: a LIMIT 1 point read, and an EXISTS that does not
       decorrelate *)
    "SELECT name FROM TasKy2.Author WHERE p = 13 LIMIT 1";
    "SELECT name FROM TasKy2.Author a WHERE EXISTS (SELECT * FROM TasKy2.Task \
     WHERE author = 13 AND p <> 1)";
  |]

(* EXPLAIN ANALYZE tells the truth: it pairs every operator span of the
   statement's trace with the plan node that recorded it. So the printed plan
   must show what ran: some node ran (and says so with its rows), no span
   went unaccounted for, no node ran on a path other than the one printed —
   except a computed view the view cache served — and nothing reads as not
   reached. *)
let check_plan_is_what_ran t sql label =
  let out = I.explain_analyze t sql in
  Alcotest.(check bool) (label ^ ": the plan shows what ran") true
    (contains out "plan:" && contains out "  rows=");
  List.iter
    (fun line ->
      let cache_hit = "  ran via cache-hit" in
      let ok =
        (not (contains line "unplanned span" || contains line "not reached"))
        && ((not (contains line "ran via"))
           || String.ends_with ~suffix:cache_hit line
              &&
              let node =
                String.sub line 0 (String.length line - String.length cache_hit)
              in
              contains node " via computed  " && not (contains node "ran via"))
      in
      if not ok then Alcotest.failf "%s: %s" label line)
    (String.split_on_char '\n' out)

(* The plan's actuals come from the trace; the cross-check line compares
   the trace root's row count against the executed result's [rel_count]
   attribution. They must agree exactly on both executor paths. *)
let explain_analyze_rows_match =
  QCheck.Test.make
    ~name:"EXPLAIN ANALYZE rows match rel_count (batch on and off)" ~count:20
    QCheck.(pair (int_bound (Array.length analyze_queries - 1)) bool)
    (fun (qi, batch) ->
      let t = Scenarios.Tasky.setup_full ~tasks:12 () in
      I.set_batch t batch;
      let sql = analyze_queries.(qi) in
      let rows = List.length (I.query_rows t sql) in
      let out = I.explain_analyze t sql in
      contains out "-> exact match"
      && contains out (Fmt.str "executed rows=%d" rows))

let test_explain_analyze_is_what_ran () =
  List.iter
    (fun batch ->
      let t = Scenarios.Tasky.setup_full ~tasks:12 () in
      I.set_batch t batch;
      Array.iter
        (fun sql ->
          let label = Fmt.str "%s batch=%b" sql batch in
          check_plan_is_what_ran t sql label;
          (* again, now that the view cache holds what the first run
             computed *)
          check_plan_is_what_ran t sql (label ^ " warm"))
        analyze_queries)
    [ true; false ]

(* EXPLAIN marks the nodes compiled in first-row mode, down to the index
   probes that stop at the first row, and none when the planner fast paths
   (first-row mode among them) are off. *)
let test_explain_first_row () =
  let t = Scenarios.Tasky.setup_full ~tasks:12 () in
  let marked sql =
    String.split_on_char '\n' (I.explain t sql)
    |> List.filter (fun line -> contains line "  first-row")
  in
  List.iter
    (fun sql ->
      let lines = marked sql in
      Alcotest.(check bool) (sql ^ ": a select runs in first-row mode") true
        (List.exists (fun l -> contains l "select via") lines);
      Alcotest.(check bool) (sql ^ ": an index probe stops at the first row")
        true
        (List.exists (fun l -> contains l "scan aux!6!id via index") lines))
    [
      "SELECT name FROM TasKy2.Author WHERE p = 13 LIMIT 1";
      "SELECT 1 WHERE EXISTS (SELECT * FROM TasKy2.Task WHERE author = 13 AND \
       p <> 1)";
    ];
  Alcotest.(check (list string)) "no LIMIT: no first-row node" []
    (marked "SELECT name FROM TasKy2.Author WHERE p = 13");
  Minidb.Database.set_optimizations (I.database t) false;
  Alcotest.(check (list string)) "fast paths off: no first-row node" []
    (marked "SELECT name FROM TasKy2.Author WHERE p = 13 LIMIT 1")

(* The same exactness must hold away from TasKy: the synthetic Wikimedia
   genealogy exercises much deeper view stacks (filler tables, long SMO
   chains) than the three-version demo. *)
let test_explain_analyze_wikimedia () =
  let t, names = Scenarios.Wikimedia.build ~versions:6 () in
  let n = Array.length names in
  let v_mid = names.(n / 2) in
  Scenarios.Wikimedia.load t ~version:v_mid ~pages:10 ~links:15;
  List.iter
    (fun batch ->
      I.set_batch t batch;
      List.iter
        (fun v ->
          List.iter
            (fun sql ->
              let rows = List.length (I.query_rows t sql) in
              let out = I.explain_analyze t sql in
              let label = Fmt.str "%s batch=%b" sql batch in
              Alcotest.(check bool)
                (label ^ ": exact match")
                true
                (contains out "-> exact match");
              Alcotest.(check bool)
                (label ^ ": executed rows")
                true
                (contains out (Fmt.str "executed rows=%d" rows));
              check_plan_is_what_ran t sql label)
            [
              Scenarios.Wikimedia.query_page_by_title ~version:v ~i:3;
              Scenarios.Wikimedia.query_link_count ~version:v;
            ])
        [ names.(0); v_mid; names.(n - 1) ])
    [ true; false ]

(* With a 1ns threshold and sample 1, every statement's root span must land
   in the slow-query log as one self-contained JSON line (threshold 0 keeps
   the sink disabled). *)
let test_slow_log_jsonl () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let path = Filename.temp_file "inverda_slow" ".jsonl" in
  I.set_slow_log t (Some (path, 1, 1));
  ignore (I.query_rows t "SELECT task FROM TasKy.Task");
  ignore (I.query_rows t "SELECT author, task FROM Do!.Todo");
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('S', 'x', 1)");
  I.set_slow_log t None;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check bool) "at least three sampled roots" true
    (List.length lines >= 3);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is a span object" true
        (contains line "\"kind\":" && contains line "\"trace\":");
      Alcotest.(check bool) "line is a root span" true
        (contains line "\"parent\":-1"))
    lines;
  Alcotest.(check bool) "roots cover both statement kinds" true
    (List.exists (fun l -> contains l "\"kind\":\"query\"") lines
    && List.exists (fun l -> contains l "\"kind\":\"insert\"") lines)

(* --- physical tables: the view memo ------------------------------------------ *)

(* EXPLAIN's physical tables of each demo version view, text and JSON, under
   their installed names *)
let test_explain_physical_tables () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  List.iter
    (fun (view, tables) ->
      let sql = "SELECT * FROM " ^ view in
      Alcotest.(check bool) (view ^ ": text") true
        (contains (I.explain t sql)
           (Fmt.str "\n physical tables touched: %s\n" (String.concat ", " tables)));
      Alcotest.(check bool) (view ^ ": json") true
        (contains (I.explain_json t sql)
           (Fmt.str "\"physical_tables\":[%s]"
              (String.concat "," (List.map (Fmt.str "\"%s\"") tables)))))
    [
      ("TasKy.Task", [ "d!1!Task" ]);
      ("Do!.Todo", [ "aux!2!lstar"; "d!1!Task" ]);
      ("TasKy2.Task", [ "aux!6!id"; "d!1!Task" ]);
      ("TasKy2.Author", [ "aux!6!id"; "d!1!Task" ]);
    ]

module Db = Minidb.Database
module E = Minidb.Exec

let rec plan_scans (p : E.plan) =
  (if p.E.kind = "scan" then [ p.E.detail ] else [])
  @ List.concat_map plan_scans p.E.inputs

(* Every installed view's memo names exactly the stored tables that the plan
   of [SELECT *] from the view scans, fast paths off; the memo walks view
   bodies, the plan compiles them, and the two share no code. *)
let check_memos_match_plans label t =
  let db = I.database t in
  Db.set_optimizations db false;
  List.iter
    (function
      | Db.Obj_view v ->
        let k = Db.key v.Db.view_name in
        let q =
          Minidb.Sql_parser.query_of_string
            (Fmt.str "SELECT * FROM \"%s\"" v.Db.view_name)
        in
        let memo = (E.view_memo db k v).Db.vm_tables in
        Alcotest.(check (list string))
          (Fmt.str "%s: %s" label k)
          (List.sort_uniq compare (plan_scans (E.plan db q)))
          (List.sort compare
             (List.map (fun tbl -> Db.key tbl.Minidb.Table.name) memo))
      | Db.Obj_table _ -> ())
    (Db.list_objects db);
  Db.set_optimizations db true

let test_memos_match_plans () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  List.iter
    (fun mat ->
      I.set_materialization t mat;
      check_memos_match_plans
        (Fmt.str "tasky {%s}" (String.concat "," (List.map string_of_int mat)))
        t)
    (G.enumerate_materializations (I.genealogy t));
  let t, names = Scenarios.Wikimedia.build ~versions:8 () in
  Scenarios.Wikimedia.load t ~version:names.(0) ~pages:6 ~links:8;
  List.iter
    (fun version ->
      I.materialize t [ version ];
      check_memos_match_plans ("wikimedia at " ^ version) t)
    [ names.(0); names.(4); names.(7) ]

(* --- prepared plans --------------------------------------------------------------- *)

(* An EXISTS that reads no column of its enclosing select runs once per
   statement, not once per outer row: no node of its plan ran twice (EXPLAIN
   ANALYZE prints [runs=] from two runs on). Its answer is the same with
   either executor and with the planner fast paths on or off. *)
let test_uncorrelated_subquery_runs_once () =
  let t = Scenarios.Tasky.setup_full ~tasks:12 () in
  let db = I.database t in
  let author = I.query_int t "SELECT MIN(author) FROM TasKy2.Task" in
  List.iter
    (fun (author, task) ->
      let sql =
        Fmt.str
          "SELECT name FROM TasKy2.Author a WHERE EXISTS (SELECT * FROM \
           TasKy2.Task WHERE author = %d AND p <> %d)"
          author task
      in
      let out = I.explain_analyze t sql in
      Alcotest.(check bool) (sql ^ ": the subquery ran") true
        (contains out "view tasky2.task via pushdown  first-row  rows=");
      Alcotest.(check bool) (sql ^ ": no node ran twice") false
        (contains out "runs=");
      let answer (batch, fast) =
        I.set_batch t batch;
        Db.set_optimizations db fast;
        List.sort compare (I.query_rows t sql)
      in
      let reference = answer (true, true) in
      List.iter
        (fun config ->
          Alcotest.(check bool) (sql ^ ": same answer") true
            (answer config = reference))
        [ (false, true); (true, false); (false, false); (true, true) ])
    [ (13, 1); (author, 1) ]

(* A plan is dropped with what it was compiled against: after the fast
   paths are toggled, an index is added, or a trigger is re-created inside a
   rolled-back transaction, a statement runs the plan EXPLAIN prints for the
   state it meets — the one an instance that never ran it compiles. *)
let test_plans_follow_the_catalog () =
  let t = I.create () in
  let exec t sql = ignore (I.exec_sql t sql) in
  let schema =
    ref
      [
        "CREATE TABLE base (p INTEGER PRIMARY KEY, a INTEGER, b INTEGER)";
        "CREATE VIEW v AS SELECT p, a, b FROM base";
        "CREATE TRIGGER v_ins INSTEAD OF INSERT ON v FOR EACH ROW BEGIN \
         INSERT INTO base (p, a, b) VALUES (NEW.p, NEW.a, NEW.b) END";
      ]
  in
  List.iter (exec t) !schema;
  exec t "INSERT INTO v (p, a, b) VALUES (1, 5, 50)";
  exec t "INSERT INTO v (p, a, b) VALUES (2, 6, 60)";
  let read = "SELECT b FROM v WHERE a = 5" in
  let check label =
    let fresh = I.create () in
    List.iter (exec fresh) !schema;
    Db.set_optimizations (I.database fresh) (I.database t).Db.optimizations;
    check_plan_is_what_ran t read label;
    Alcotest.(check string) (label ^ ": the plan a fresh instance compiles")
      (I.explain fresh read) (I.explain t read);
    Alcotest.(check (list (list string))) (label ^ ": answer") [ [ "50" ] ]
      (List.map (List.map Minidb.Value.to_string) (I.query_rows t read))
  in
  check "first run";
  check "prepared";
  Db.set_optimizations (I.database t) false;
  check "fast paths off";
  Db.set_optimizations (I.database t) true;
  check "fast paths on again";
  let index = "CREATE INDEX base_a ON base (a)" in
  exec t index;
  schema := !schema @ [ index ];
  check "after an index";
  Alcotest.(check bool) "the index serves the read" true
    (contains (I.explain t read) "scan base via index");
  let b_of p = I.query_int t (Fmt.str "SELECT b FROM base WHERE p = %d" p) in
  exec t "INSERT INTO v (p, a, b) VALUES (3, 7, 70)";
  exec t "BEGIN";
  exec t "DROP TRIGGER v_ins";
  exec t
    "CREATE TRIGGER v_ins INSTEAD OF INSERT ON v FOR EACH ROW BEGIN INSERT \
     INTO base (p, a, b) VALUES (NEW.p, NEW.a, NEW.b + 1000) END";
  exec t "INSERT INTO v (p, a, b) VALUES (4, 8, 80)";
  Alcotest.(check int) "the re-created trigger ran" 1080 (b_of 4);
  exec t "ROLLBACK";
  exec t "INSERT INTO v (p, a, b) VALUES (5, 9, 90)";
  Alcotest.(check int) "the restored trigger ran" 90 (b_of 5);
  Alcotest.(check int) "the rolled-back row is gone" 0
    (I.query_int t "SELECT COUNT(*) FROM base WHERE p = 4");
  check "after a rolled-back trigger"

(* --- suite ---------------------------------------------------------------------- *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "telemetry"
    [
      ( "profile",
        [
          tc "matches replay under all materializations"
            test_profile_all_materializations;
          tc "matches replay for the paper mix" test_profile_mixed_workload;
        ] );
      ( "advisor",
        [
          tc "observed agrees with hand profile (TasKy)"
            test_advise_observed_agrees_tasky;
          tc "observed agrees with hand profile (Wikimedia)"
            test_advise_observed_agrees_wikimedia;
        ] );
      ( "switch",
        [ tc "disabled counts nothing; reset clears" test_disabled_counts_nothing ] );
      ( "spans",
        [
          tc "ring bounded and monotone" test_span_ring_bounded_and_monotone;
          tc "trigger cascade recorded" test_span_records_trigger_cascade;
        ] );
      ( "traces",
        [
          tc "containment, unique ids, trace membership" test_trace_invariants;
          tc "failed statement leaves no spans"
            test_failed_statement_leaves_no_spans;
          tc "ring wrap never orphans children" test_ring_wrap_no_orphans;
          tc "slow-query log samples root spans as JSONL" test_slow_log_jsonl;
        ] );
      ( "stats",
        [
          tc "json and text documents" test_stats_documents;
          tc "openmetrics exposition" test_openmetrics_document;
        ] );
      ( "explain",
        [
          tc "select path" test_explain_select;
          tc "insert cascade" test_explain_insert_cascade;
          QCheck_alcotest.to_alcotest explain_analyze_rows_match;
          tc "analyze: every traced node ran on its planned path"
            test_explain_analyze_is_what_ran;
          tc "analyze exact on Wikimedia genealogy"
            test_explain_analyze_wikimedia;
          tc "first-row nodes marked" test_explain_first_row;
          tc "physical tables of the demo views" test_explain_physical_tables;
          tc "view memos read what plans scan" test_memos_match_plans;
        ] );
      ( "plans",
        [
          tc "an uncorrelated subquery runs once"
            test_uncorrelated_subquery_runs_once;
          tc "plans follow the catalog" test_plans_follow_the_catalog;
        ] );
    ]
