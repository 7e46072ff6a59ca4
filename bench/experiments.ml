(** One function per table/figure of the paper's evaluation (Section 8).
    Each prints the same rows/series the paper reports, at a configurable
    scale. EXPERIMENTS.md records paper-reported vs. measured values. *)

module I = Inverda.Api
module W = Scenarios.Workload

type scale = {
  fig8_tasks : int;
  fig9_tasks : int;
  fig9_slices : int;
  fig9_ops_per_slice : int;
  fig11_tasks : int;
  fig11_ops : int;
  fig12_versions : int;
  fig12_pages : int;
  fig12_links : int;
  fig13_sizes : int list;
  batch_tasks : int;
  runs : int;
}

let default_scale =
  {
    fig8_tasks = 5_000;
    fig9_tasks = 1_000;
    fig9_slices = 16;
    fig9_ops_per_slice = 40;
    fig11_tasks = 2_000;
    fig11_ops = 60;
    fig12_versions = 60;
    fig12_pages = 400;
    fig12_links = 1_200;
    fig13_sizes = [ 100; 400; 1_600 ];
    batch_tasks = 20_000;
    runs = 3;
  }

let paper_scale =
  {
    fig8_tasks = 100_000;
    fig9_tasks = 10_000;
    fig9_slices = 100;
    fig9_ops_per_slice = 200;
    fig11_tasks = 20_000;
    fig11_ops = 200;
    fig12_versions = 171;
    fig12_pages = 14_359;
    (* the full Akan wiki of the paper: 536,283 page links *)
    fig12_links = 536_283;
    fig13_sizes = [ 1_000; 4_000; 16_000 ];
    batch_tasks = 1_000_000;
    runs = 5;
  }

(* Tiny parameters for CI smoke runs (check.sh): exercise the full code paths
   in well under a second per experiment. *)
let smoke_scale =
  {
    fig8_tasks = 200;
    fig9_tasks = 100;
    fig9_slices = 2;
    fig9_ops_per_slice = 5;
    fig11_tasks = 100;
    fig11_ops = 5;
    fig12_versions = 8;
    fig12_pages = 40;
    fig12_links = 120;
    fig13_sizes = [ 50 ];
    batch_tasks = 300;
    runs = 1;
  }

let section title =
  Fmt.pr "@.=== %s ===@." title

let ms t = t *. 1000.0

(* --- Table 1: the related-work matrix (documentation, not measured) -------- *)

let table1 () =
  section "Table 1: contribution matrix (as documented in the paper)";
  Fmt.pr
    "%-28s %8s %8s %8s %8s@." "" "SQL" "PRISM" "CoDEL" "BiDEL";
  List.iter
    (fun (row, cells) ->
      Fmt.pr "%-28s %8s %8s %8s %8s@." row
        (List.nth cells 0) (List.nth cells 1) (List.nth cells 2) (List.nth cells 3))
    [
      ("Database Evolution Language", [ "no"; "yes"; "yes"; "yes" ]);
      ("Relationally Complete", [ "yes"; "no"; "yes"; "yes" ]);
      ("Co-Existing Schema Versions", [ "no"; "no"; "no"; "yes" ]);
      ("- Backward Query Rewriting", [ "no"; "no"; "no"; "yes" ]);
      ("- Backward Migration", [ "no"; "no"; "no"; "yes" ]);
      ("Guaranteed Bidirectionality", [ "no"; "no"; "no"; "yes" ]);
    ]

(* --- Table 2: materialization schemas of the TasKy example ------------------ *)

let table2 () =
  section "Table 2: valid materialization schemas of the TasKy genealogy";
  let t = Scenarios.Tasky.setup_full () in
  let gen = I.genealogy t in
  let mats = Inverda.Genealogy.enumerate_materializations gen in
  Fmt.pr "found %d valid materialization schemas (paper: 5)@." (List.length mats);
  List.iter
    (fun mat ->
      let smo_names =
        List.filter_map
          (fun id ->
            let si = Inverda.Genealogy.smo gen id in
            match si.Inverda.Genealogy.si_smo with
            | Bidel.Ast.Create_table _ -> None
            | smo -> Some (Bidel.Ast.smo_name smo))
          mat
      in
      let phys =
        Inverda.Genealogy.physical_tables_for gen mat
        |> List.map (fun v ->
               Fmt.str "%s-%d" v.Inverda.Genealogy.tv_table v.Inverda.Genealogy.tv_id)
      in
      Fmt.pr "  M = {%s}  ->  P = {%s}@."
        (String.concat ", " smo_names)
        (String.concat ", " phys))
    mats

(* --- Table 3: code size BiDEL vs handwritten SQL ----------------------------- *)

let table3 () =
  section "Table 3: BiDEL vs handwritten SQL (LoC / statements / characters)";
  let show name bidel sql (paper_ratio : string) =
    let b = Bidel.Metrics.measure bidel and s = Bidel.Metrics.measure sql in
    Fmt.pr "%-10s BiDEL: %3d / %3d / %5d   SQL: %3d / %3d / %5d   LoC ratio: x%.1f (paper: %s)@."
      name b.Bidel.Metrics.lines b.Bidel.Metrics.statements b.Bidel.Metrics.characters
      s.Bidel.Metrics.lines s.Bidel.Metrics.statements s.Bidel.Metrics.characters
      (Bidel.Metrics.ratio s.Bidel.Metrics.lines b.Bidel.Metrics.lines)
      paper_ratio
  in
  show "initially" Scenarios.Tasky.bidel_initial Scenarios.Tasky_sql.initial_schema "x1.0";
  show "evolution"
    (Scenarios.Tasky.bidel_do ^ "\n" ^ Scenarios.Tasky.bidel_tasky2)
    Scenarios.Tasky_sql.evolution_script "x119.7";
  show "migration" Scenarios.Tasky.bidel_migration Scenarios.Tasky_sql.migration_script
    "x182.0"

(* --- Table 4: the Wikimedia SMO histogram ------------------------------------ *)

let table4 () =
  section "Table 4: SMOs in the (synthesized) Wikimedia evolution";
  let api, names = Scenarios.Wikimedia.build () in
  Fmt.pr "schema versions: %d (paper: 171)@." (Array.length names);
  List.iter
    (fun (name, n) -> Fmt.pr "  %-14s %3d@." name n)
    (Scenarios.Wikimedia.histogram api)

(* --- Section 8.1: delta code generation time ---------------------------------- *)

let generation_time () =
  section "Delta code generation time (paper: TasKy 154 ms, TasKy2 230 ms, Do! 177 ms)";
  let t = I.create () in
  let time_evolve name script =
    let _, dt = W.time (fun () -> I.evolve t script) in
    Fmt.pr "  %-8s %6.1f ms@." name (ms dt)
  in
  time_evolve "TasKy" Scenarios.Tasky.bidel_initial;
  Scenarios.Tasky.load_tasks t 1000;
  time_evolve "TasKy2" Scenarios.Tasky.bidel_tasky2;
  time_evolve "Do!" Scenarios.Tasky.bidel_do

(* --- Figure 8: overhead of generated vs handwritten delta code ---------------- *)

let fig8 scale =
  section
    (Fmt.str "Figure 8: generated vs handwritten delta code (%d tasks)"
       scale.fig8_tasks);
  let setup_inverda mat =
    let t = Scenarios.Tasky.setup_full ~tasks:scale.fig8_tasks () in
    if mat = `Evolved then I.materialize t [ "TasKy2" ];
    I.database t
  in
  let setup_hand mat =
    Scenarios.Tasky_sql.setup ~tasks:scale.fig8_tasks
      ~materialization:
        (match mat with
        | `Initial -> Scenarios.Tasky_sql.Initial
        | `Evolved -> Scenarios.Tasky_sql.Evolved)
      ()
  in
  let configs =
    [
      ("SQL, initial mat.", setup_hand `Initial);
      ("BiDEL, initial mat.", setup_inverda `Initial);
      ("SQL, evolved mat.", setup_hand `Evolved);
      ("BiDEL, evolved mat.", setup_inverda `Evolved);
    ]
  in
  Fmt.pr "%-22s %14s %14s %16s %16s@." "" "read TasKy" "read TasKy2"
    "100 ins TasKy" "100 ins TasKy2";
  List.iter
    (fun (name, db) ->
      let r = W.make_runner db in
      let read_tasky =
        W.median_time ~runs:scale.runs (fun () ->
            ignore (Minidb.Engine.query db (Scenarios.Tasky.tasky_read r.W.rng)))
      in
      let read_tasky2 =
        W.median_time ~runs:scale.runs (fun () ->
            ignore (Minidb.Engine.query db (Scenarios.Tasky.tasky2_read r.W.rng)))
      in
      let ins_tasky =
        W.time_unit (fun () ->
            for i = 1 to 100 do
              ignore
                (Minidb.Engine.exec db (Scenarios.Tasky.tasky_insert r.W.rng (900000 + i)))
            done)
      in
      let author =
        try Minidb.Engine.query_int db "SELECT MIN(p) FROM TasKy2.Author"
        with _ -> 1
      in
      let ins_tasky2 =
        W.time_unit (fun () ->
            for i = 1 to 100 do
              ignore
                (Minidb.Engine.exec db
                   (Scenarios.Tasky.tasky2_insert r.W.rng (910000 + i) author))
            done)
      in
      Fmt.pr "%-22s %11.2f ms %11.2f ms %13.2f ms %13.2f ms@." name
        (ms read_tasky) (ms read_tasky2) (ms ins_tasky) (ms ins_tasky2))
    configs

(* --- Figures 9/10: flexible materialization under a workload shift ------------ *)

let shift_run ?(flexible = []) db ~v_old ~v_new ~slices ~ops =
  (* returns the accumulated time series; [flexible] lists
     (slice_fraction, migration targets) switch points *)
  let r = W.make_runner db in
  let acc = ref 0.0 in
  let series = ref [] in
  let pending = ref flexible in
  List.iter
    (fun slice ->
      let frac = W.adoption_fraction ~slice ~slices in
      (match !pending with
      | (threshold, action) :: rest when frac >= threshold ->
        (* migration cost counts into the accumulated overhead *)
        acc := !acc +. W.time_unit action;
        pending := rest
      | _ -> ());
      acc := !acc +. W.run_slice r ~v_old ~v_new ~frac ~mix:W.paper_mix ~ops;
      series := (slice, !acc) :: !series)
    (List.init slices (fun i -> i + 1));
  List.rev !series

let print_series name series =
  let n = List.length series in
  let checkpoints = [ n / 4; n / 2; 3 * n / 4; n ] in
  Fmt.pr "%-26s" name;
  List.iter
    (fun c ->
      match List.nth_opt series (max 0 (c - 1)) with
      | Some (_, acc) -> Fmt.pr "  %8.2f s" acc
      | None -> ())
    checkpoints;
  Fmt.pr "@."

let fig9 scale =
  section
    (Fmt.str
       "Figure 9: workload shift TasKy -> TasKy2 (%d tasks, %d slices x %d ops; accumulated seconds at 25/50/75/100%%)"
       scale.fig9_tasks scale.fig9_slices scale.fig9_ops_per_slice);
  let slices = scale.fig9_slices and ops = scale.fig9_ops_per_slice in
  (* fixed handwritten baselines *)
  let hand_initial =
    Scenarios.Tasky_sql.setup ~tasks:scale.fig9_tasks ()
  in
  print_series "SQL, initial mat."
    (shift_run hand_initial ~v_old:W.V_tasky ~v_new:W.V_tasky2 ~slices ~ops);
  let hand_evolved =
    Scenarios.Tasky_sql.setup ~tasks:scale.fig9_tasks
      ~materialization:Scenarios.Tasky_sql.Evolved ()
  in
  print_series "SQL, evolved mat."
    (shift_run hand_evolved ~v_old:W.V_tasky ~v_new:W.V_tasky2 ~slices ~ops);
  (* InVerDa with a single-line migration at the crossover *)
  let flex = Scenarios.Tasky.setup_full ~tasks:scale.fig9_tasks () in
  print_series "BiDEL, flexible mat."
    (shift_run (I.database flex)
       ~flexible:[ (0.5, fun () -> I.materialize flex [ "TasKy2" ]) ]
       ~v_old:W.V_tasky ~v_new:W.V_tasky2 ~slices ~ops)

let fig10 scale =
  section
    (Fmt.str
       "Figure 10: workload shift Do! -> TasKy2 (%d tasks; accumulated seconds at 25/50/75/100%%)"
       scale.fig9_tasks);
  let slices = scale.fig9_slices and ops = scale.fig9_ops_per_slice in
  let fixed name targets =
    let t = Scenarios.Tasky.setup_full ~tasks:scale.fig9_tasks () in
    (match targets with [] -> () | _ -> I.materialize t targets);
    print_series name
      (shift_run (I.database t) ~v_old:W.V_do ~v_new:W.V_tasky2 ~slices ~ops)
  in
  fixed "Do! materialized" [ "Do!" ];
  fixed "TasKy materialized" [];
  fixed "TasKy2 materialized" [ "TasKy2" ];
  let flex = Scenarios.Tasky.setup_full ~tasks:scale.fig9_tasks () in
  I.materialize flex [ "Do!" ];
  print_series "BiDEL, flexible mat."
    (shift_run (I.database flex)
       ~flexible:
         [
           (0.33, fun () -> I.materialize flex [ "TasKy" ]);
           (0.66, fun () -> I.materialize flex [ "TasKy2" ]);
         ]
       ~v_old:W.V_do ~v_new:W.V_tasky2 ~slices ~ops)

(* --- Figure 11: all materializations x all versions x three workloads --------- *)

let fig11 scale =
  section
    (Fmt.str "Figure 11: per-version cost under all 5 materializations (%d tasks, %d ops)"
       scale.fig11_tasks scale.fig11_ops);
  let t = Scenarios.Tasky.setup_full ~tasks:scale.fig11_tasks () in
  let gen = I.genealogy t in
  let mats = Inverda.Genealogy.enumerate_materializations gen in
  let mat_label mat =
    let labels =
      List.filter_map
        (fun id ->
          let si = Inverda.Genealogy.smo gen id in
          match si.Inverda.Genealogy.si_smo with
          | Bidel.Ast.Create_table _ -> None
          | Bidel.Ast.Split _ -> Some "S"
          | Bidel.Ast.Drop_column _ -> Some "DC"
          | Bidel.Ast.Decompose _ -> Some "D"
          | Bidel.Ast.Rename_column _ -> Some "RC"
          | _ -> Some "?")
        mat
    in
    if labels = [] then "[initial]" else "[" ^ String.concat "," labels ^ "]"
  in
  List.iter
    (fun (wname, mix) ->
      Fmt.pr "@.workload %s:@." wname;
      Fmt.pr "%-16s %12s %12s %12s@." "materialization" "TasKy" "Do!" "TasKy2";
      List.iter
        (fun mat ->
          I.set_materialization t mat;
          let r = W.make_runner (I.database t) in
          let cost version = W.run_mix r ~version ~mix ~ops:scale.fig11_ops in
          let c1 = cost W.V_tasky and c2 = cost W.V_do and c3 = cost W.V_tasky2 in
          Fmt.pr "%-16s %9.2f ms %9.2f ms %9.2f ms@." (mat_label mat) (ms c1)
            (ms c2) (ms c3))
        mats)
    [ ("mix 50/20/20/10 (a)", W.paper_mix); ("100% reads (b)", W.read_only);
      ("100% inserts (c)", W.insert_only) ]

(* --- Figure 12: Wikimedia optimization potential ------------------------------- *)

let fig12 scale =
  section
    (Fmt.str
       "Figure 12: Wikimedia read cost vs materialized version (%d versions, %d pages, %d links)"
       scale.fig12_versions scale.fig12_pages scale.fig12_links);
  let api, names = Scenarios.Wikimedia.build ~versions:scale.fig12_versions () in
  let n = Array.length names in
  let v_first = names.(0) in
  let v_mid = names.(64 * (n - 1) / 100) in
  (* the paper loads at the 109th of 171 = ~64% *)
  let v_last = names.(n - 1) in
  let v_query_early = names.(16 * (n - 1) / 100) in
  (* 28th of 171 = ~16% *)
  Scenarios.Wikimedia.load api ~version:v_mid ~pages:scale.fig12_pages
    ~links:scale.fig12_links;
  let db = I.database api in
  Fmt.pr "%-24s %18s %18s@." "materialized at" ("queries on " ^ v_query_early)
    ("queries on " ^ v_last);
  List.iter
    (fun mat_version ->
      I.materialize api [ mat_version ];
      let run version =
        W.median_time ~runs:scale.runs (fun () ->
            ignore (Minidb.Engine.query db (Scenarios.Wikimedia.query_page_by_title ~version ~i:7));
            ignore (Minidb.Engine.query db (Scenarios.Wikimedia.query_link_count ~version)))
      in
      Fmt.pr "%-24s %15.2f ms %15.2f ms@." mat_version (ms (run v_query_early))
        (ms (run v_last)))
    [ v_first; v_mid; v_last ]

(* --- Figure 13: two-SMO chains ------------------------------------------------- *)

let fig13 scale =
  section "Figure 13: two-SMO evolutions, local vs propagated access";
  Fmt.pr
    "scaling series per combo (2nd SMO = ADD COLUMN, as in the paper's figure):@.";
  Fmt.pr "read v3: local / via 1 SMO / via 2 SMOs, plus the calculated 2-SMO estimate@.";
  let results = ref [] in
  List.iter
    (fun k1 ->
      let k2 = Scenarios.Two_smo.K_add in
      Fmt.pr "%-12s + ADD COLUMN@."
        (Scenarios.Two_smo.kind_name k1);
      List.iter
        (fun size ->
          let t = Scenarios.Two_smo.build (k1, k2) in
          Scenarios.Two_smo.load t size;
          let measure version =
            W.median_time ~runs:scale.runs (fun () ->
                Scenarios.Two_smo.read_all t version)
          in
          Scenarios.Two_smo.materialize_at t "v1";
          let v2_via1 = measure "v2" in
          let v3_via2smo = measure "v3" in
          Scenarios.Two_smo.materialize_at t "v2";
          let v2_local = measure "v2" in
          let v3_via1 = measure "v3" in
          Scenarios.Two_smo.materialize_at t "v3";
          let v3_local = measure "v3" in
          let calculated = v3_via1 +. v2_via1 -. v2_local in
          if size = List.nth scale.fig13_sizes (List.length scale.fig13_sizes - 1)
          then
            results :=
              (k1, k2, v3_local, v3_via1, v3_via2smo, calculated) :: !results;
          Fmt.pr "  %6d tuples: local %7.2f ms   1 SMO %7.2f ms   2 SMOs %7.2f ms   calc %7.2f ms@."
            size (ms v3_local) (ms v3_via1) (ms v3_via2smo) (ms calculated))
        scale.fig13_sizes)
    Scenarios.Two_smo.all_kinds;
  (* summary statistics over the ADD COLUMN row, like the paper's text *)
  let rs = !results in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 rs /. float_of_int (List.length rs) in
  let speedup = avg (fun (_, _, local, _, via2, _) -> via2 /. max 1e-9 local) in
  let deviation =
    avg (fun (_, _, _, _, via2, calc) ->
        abs_float (via2 -. calc) /. max 1e-9 via2)
  in
  Fmt.pr "average 2-SMO/local slowdown: x%.2f (paper reports ~x2 speedup potential)@." speedup;
  Fmt.pr "measured vs calculated deviation: %.1f%% (paper: 6.3%%)@." (deviation *. 100.0)

(* --- formal evaluation summary --------------------------------------------------- *)

let formal () =
  section "Formal evaluation: bidirectionality of every SMO (conditions 26/27)";
  let failed = ref 0 in
  let check name schemas smo src tgt =
    let inst =
      Bidel.Smo_semantics.instantiate ~smo:(Bidel.Parser.smo_of_string smo)
        ~source_cols:(fun t -> List.assoc t schemas)
        ~name_src:(fun t -> "src!" ^ t)
        ~name_tgt:(fun t -> "tgt!" ^ t)
        ~aux_name:(fun k -> "aux!" ^ k)
        ~skolem_name:Bidel.Verify.skolem_name
    in
    let r27 = (Bidel.Verify.check_src inst src).Bidel.Verify.ok in
    let r26 = (Bidel.Verify.check_tgt inst tgt).Bidel.Verify.ok in
    let laws = Analysis.Verify.check_instance inst in
    if not (r27 && r26 && Analysis.Verify.report_ok laws) then incr failed;
    Fmt.pr "  %-22s (27): %-4s (26): %s@.      GetPut: %s@.      PutGet: %s@."
      name
      (if r27 then "ok" else "FAIL")
      (if r26 then "ok" else "FAIL")
      (Analysis.Verify.verdict_to_string laws.Analysis.Verify.lr_getput)
      (Analysis.Verify.verdict_to_string laws.Analysis.Verify.lr_putget)
  in
  let i n = Minidb.Value.Int n in
  let rows2 = [ [| i 1; i 10; i 20 |]; [| i 2; i 4; i 1 |] ] in
  check "ADD COLUMN" [ ("t", [ "a"; "b" ]) ] "ADD COLUMN c AS a + 1 INTO t"
    [ ("src!t", rows2) ]
    [ ("tgt!t", [ [| i 1; i 10; i 20; i 9 |] ]) ];
  check "DROP COLUMN" [ ("t", [ "a"; "b" ]) ] "DROP COLUMN b FROM t DEFAULT 0"
    [ ("src!t", rows2) ]
    [ ("tgt!t", [ [| i 1; i 10 |] ]) ];
  check "SPLIT" [ ("t", [ "a"; "b" ]) ]
    "SPLIT TABLE t INTO r WITH a < 8, q WITH a > 2"
    [ ("src!t", rows2) ]
    [ ("tgt!r", [ [| i 1; i 3; i 5 |] ]); ("tgt!q", [ [| i 2; i 9; i 9 |] ]) ];
  check "MERGE"
    [ ("r", [ "a"; "b" ]); ("q", [ "a"; "b" ]) ]
    "MERGE TABLE r (a < 8), q (a > 2) INTO t"
    [ ("src!r", [ [| i 1; i 3; i 5 |] ]); ("src!q", [ [| i 2; i 9; i 9 |] ]) ]
    [ ("tgt!t", rows2) ];
  check "DECOMPOSE ON PK" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO s(a), u(b) ON PK"
    [ ("src!t", rows2) ]
    [ ("tgt!s", [ [| i 1; i 10 |] ]); ("tgt!u", [ [| i 1; i 20 |]; [| i 2; i 3 |] ]) ];
  check "DECOMPOSE ON FK" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO s(a), u(b) ON FOREIGN KEY fk"
    [ ("src!t", rows2) ]
    [ ("tgt!s", [ [| i 1; i 10; i 100 |] ]); ("tgt!u", [ [| i 100; i 20 |] ]) ];
  check "DECOMPOSE ON COND" [ ("t", [ "a"; "b" ]) ]
    "DECOMPOSE TABLE t INTO s(a), u(b) ON a = b"
    [ ("src!t", rows2) ]
    [ ("tgt!s", [ [| i 100; i 10 |] ]); ("tgt!u", [ [| i 200; i 10 |] ]) ];
  check "JOIN ON PK"
    [ ("s", [ "a" ]); ("u", [ "b" ]) ]
    "JOIN TABLE s, u INTO t ON PK"
    [ ("src!s", [ [| i 1; i 10 |] ]); ("src!u", [ [| i 1; i 20 |]; [| i 3; i 4 |] ]) ]
    [ ("tgt!t", [ [| i 1; i 10; i 20 |] ]) ];
  check "OUTER JOIN ON PK"
    [ ("s", [ "a" ]); ("u", [ "b" ]) ]
    "OUTER JOIN TABLE s, u INTO t ON PK"
    [ ("src!s", [ [| i 1; i 10 |] ]); ("src!u", [ [| i 3; i 4 |] ]) ]
    [ ("tgt!t", [ [| i 1; i 10; Minidb.Value.Null |] ]) ];
  Fmt.pr
    "  (the full randomized evaluation runs in the test suite: dune runtest)@.";
  if !failed > 0 then begin
    Fmt.epr "formal: %d SMO(s) failed a round trip or a law@." !failed;
    exit 1
  end


(* --- ablations (DESIGN.md section 6) ------------------------------------------ *)

(** Ablation 1: the engine's planner fast paths (index probes, predicate
    pushdown through view chains, index nested-loop joins). The paper's
    future-work item (4) asks for "optimized delta code within a database
    system"; this quantifies what the optimizations buy on InVerDa's
    generated delta code. *)
let ablation_pushdown scale =
  section "Ablation: planner fast paths on generated delta code";
  let tasks = min 2_000 scale.fig8_tasks in
  let run optimizations =
    let t = Scenarios.Tasky.setup_full ~tasks () in
    let db = I.database t in
    Minidb.Database.set_optimizations db optimizations;
    let point_read =
      W.median_time ~runs:scale.runs (fun () ->
          ignore
            (Minidb.Engine.query db
               (Fmt.str "SELECT task FROM TasKy2.Task WHERE p = %d" (tasks / 2))))
    in
    let author =
      Minidb.Database.set_optimizations db true;
      let a = try Minidb.Engine.query_int db "SELECT MIN(p) FROM TasKy2.Author" with _ -> 1 in
      Minidb.Database.set_optimizations db optimizations;
      a
    in
    let writes =
      W.time_unit (fun () ->
          for i = 1 to 20 do
            ignore
              (Minidb.Engine.exec db
                 (Scenarios.Tasky.tasky2_insert (Scenarios.Rng.create ()) (777000 + i) author))
          done)
    in
    (point_read, writes)
  in
  let on_read, on_write = run true in
  let off_read, off_write = run false in
  Fmt.pr "%-26s %14s %16s@." "" "point read v2" "20 inserts v2";
  Fmt.pr "%-26s %11.3f ms %13.2f ms@." "fast paths on" (ms on_read) (ms on_write);
  Fmt.pr "%-26s %11.3f ms %13.2f ms@." "fast paths off" (ms off_read) (ms off_write);
  Fmt.pr "speedup: x%.1f reads, x%.1f writes@."
    (off_read /. max 1e-9 on_read)
    (off_write /. max 1e-9 on_write)

(** Ablation 2: write-propagation cost versus evolution-chain length — each
    additional virtualized SMO adds one trigger hop (the "more SMOs = more
    delta code = more overhead" observation of Section 2). *)
let ablation_chain scale =
  section "Ablation: write cost vs evolution chain length (ADD COLUMN chains)";
  List.iter
    (fun len ->
      let t = I.create () in
      I.evolve t "CREATE SCHEMA VERSION v0 WITH CREATE TABLE r(a);";
      for i = 1 to len do
        I.evolve t
          (Fmt.str "CREATE SCHEMA VERSION v%d FROM v%d WITH ADD COLUMN c%d AS 0 INTO r;"
             i (i - 1) i)
      done;
      let db = I.database t in
      let cost =
        W.median_time ~runs:scale.runs (fun () ->
            for i = 1 to 20 do
              ignore
                (Minidb.Engine.execf db "INSERT INTO v%d.r (a) VALUES (%d)" len i)
            done)
      in
      Fmt.pr "  chain length %2d: %7.2f ms / 20 writes@." len (ms cost))
    [ 1; 2; 4; 8; 16 ]

(* --- machine-readable baseline (--json) ---------------------------------------- *)

let ns t = t *. 1e9

(* Steady-state per-statement read cost: one warm-up execution (statement
   compilation, cache fill), then the mean over a repeated-read loop. *)
let repeated_read_cost db ~reads sql =
  ignore (Minidb.Engine.query db sql);
  W.time_unit (fun () ->
      for _ = 1 to reads do
        ignore (Minidb.Engine.query db sql)
      done)
  /. float_of_int reads

(** Interleaved min-of-rounds estimator for ratio measurements. The
    configurations are measured one batch each per round — machine-load
    drift then hits every configuration alike instead of whichever
    happened to run during a noisy stretch — and each reports its best
    round, discarding the noise (which is strictly additive) rather than
    averaging it into the ratio. Round 0 is a warm-up whose result is
    discarded; [measure i config round] returns the cost of configuration
    [i] in the given round. *)
let interleaved_min ~runs (configs : 'a array) (measure : int -> 'a -> int -> float) =
  let best = Array.make (Array.length configs) infinity in
  Array.iteri (fun i t -> ignore (measure i t 0)) configs;
  for r = 1 to runs do
    Array.iteri
      (fun i t -> best.(i) <- Float.min best.(i) (measure i t r))
      configs
  done;
  best

(* --- telemetry overhead (BENCH_PR5.json) --------------------------------- *)

let median_of xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

(** Overhead of telemetry collection on the PR4 read suite: the same
    statements measured with collection enabled vs disabled on one instance
    (default materialization, cache on), interleaved batch-by-batch so both
    settings see the same heap and cache state. The counters are the
    advisor's input, so they have to be cheap enough to leave on — the read
    statements are gated at a loose x[gate] ratio (inserts are reported but
    not gated: 50-statement write batches are too noisy for a tight bound).
    Returns the worst read overhead ratio; [out] writes BENCH_PR5.json. *)
let telemetry_overhead ?out ?(gate = 1.5) scale =
  section "Telemetry overhead: collection on vs off (PR4 read suite, cache on)";
  let tasks = min scale.fig8_tasks 5_000 in
  let reads = 100 in
  let runs = 2 * max 5 scale.runs + 1 in
  let rng = Scenarios.Rng.create ~seed:23 () in
  let t = Scenarios.Tasky.setup_full ~tasks () in
  let db = I.database t in
  (* fixed statements, generated once so on/off measure identical SQL *)
  let q_local = Scenarios.Tasky.tasky_read rng in
  let q_dist2 = Scenarios.Tasky.tasky2_read rng in
  let q_do = Scenarios.Tasky.do_read rng in
  (* Each round times an off batch and an on batch back to back and keeps
     the per-round ratio; the reported overhead is the median ratio. Paired
     rounds cancel the slow drift (heap growth, host jitter) that dwarfs a
     percent-level effect over a whole run. *)
  let paired batch =
    let offs = ref [] and ons = ref [] and ratios = ref [] in
    for _ = 1 to runs do
      let off = batch false in
      let on = batch true in
      offs := off :: !offs;
      ons := on :: !ons;
      ratios := (on /. Float.max 1e-12 off) :: !ratios
    done;
    I.set_telemetry t true;
    (median_of !offs, median_of !ons, median_of !ratios)
  in
  let read_round sql =
    ignore (Minidb.Engine.query db sql);
    (* warm: compile + cache fill *)
    let batch tel =
      I.set_telemetry t tel;
      W.time_unit (fun () ->
          for _ = 1 to reads do
            ignore (Minidb.Engine.query db sql)
          done)
    in
    let off, on, ratio = paired batch in
    let per x = ns (x /. float_of_int reads) in
    (per off, per on, ratio)
  in
  let insert_round () =
    let base = ref 840_000 in
    let batch tel =
      I.set_telemetry t tel;
      let b = !base in
      base := !base + 100;
      W.time_unit (fun () ->
          for i = 1 to 50 do
            ignore (Minidb.Engine.exec db (Scenarios.Tasky.tasky_insert rng (b + i)))
          done)
    in
    let off, on, ratio = paired batch in
    let per x = ns (x /. 50.0) in
    (per off, per on, ratio)
  in
  (* burn-in: discard one full pass so the first measured pair does not pay
     initial heap growth *)
  ignore (read_round q_dist2);
  let suite =
    [
      ("read_local", read_round q_local);
      ("read_dist2", read_round q_dist2);
      ("read_do_dist2", read_round q_do);
      ("insert_tasky", insert_round ());
    ]
  in
  Fmt.pr "%-16s %14s %14s %10s@." "" "telemetry off" "telemetry on" "overhead";
  List.iter
    (fun (name, (off, on, ratio)) ->
      Fmt.pr "%-16s %11.0f ns %11.0f ns %9.3f@." name off on ratio)
    suite;
  let read_ratios =
    List.filter_map
      (fun (name, (_, _, ratio)) ->
        if String.length name >= 4 && String.sub name 0 4 = "read" then
          Some ratio
        else None)
      suite
  in
  let worst = List.fold_left Float.max 0.0 read_ratios in
  Fmt.pr "max read overhead: x%.3f (gate: x%.2f)@." worst gate;
  (match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 512 in
    let addf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
    addf "{\n";
    addf "  \"baseline\": \"PR5\",\n";
    addf "  \"unit\": \"ns/op\",\n";
    addf "  \"tasks\": %d,\n" tasks;
    addf "  \"reads_per_batch\": %d,\n" reads;
    addf "  \"runs\": %d,\n" runs;
    addf "  \"max_read_overhead\": %.4f,\n" worst;
    addf "  \"experiments\": {\n";
    let n = List.length suite in
    List.iteri
      (fun i (name, (off, on, ratio)) ->
        addf "    \"%s_off\": %.0f,\n" name off;
        addf "    \"%s_on\": %.0f,\n" name on;
        addf "    \"%s_overhead\": %.4f%s\n" name ratio
          (if i = n - 1 then "" else ","))
      suite;
    addf "  }\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Fmt.pr "wrote %s@." path);
  if worst > gate then
    failwith
      (Fmt.str "telemetry read overhead x%.3f exceeds the x%.2f gate" worst gate);
  worst

(* --- durability (BENCH_PR8.json) ------------------------------------------- *)

(** Write-ahead-log overhead on the insert path and recovery cost
    (BENCH_PR8.json). The same TasKy insert workload (inserts at the source
    version, so every statement also fires the delta-code trigger cascade)
    is timed on an instance without a log and on one logging every committed
    statement in the default [Flush] sync mode; their ratio is the WAL write
    overhead, gated at [gate]x. The [Fsync] mode is measured too but only
    reported — its cost is the disk's, not the encoder's. Recovery is then
    timed twice against the logged instance's directory: a genesis replay of
    the whole log, and the accelerated path after a checkpoint is written at
    the head. *)
let wal ?out ?(gate = 1.15) scale =
  section "Durability: WAL write overhead, recovery time";
  let tasks = min scale.fig8_tasks 5_000 in
  let runs = max 7 scale.runs in
  (* tiny scales amortize timer and GC noise over a longer batch instead of
     more data *)
  let batch = if tasks < 2_000 then 200 else 100 in
  (* each configuration gets its own identically-seeded generator, so all
     three execute the exact same statement stream *)
  let build ?sync ?dir () =
    let rng = Scenarios.Rng.create ~seed:47 () in
    let t = I.create () in
    (match dir with Some d -> I.attach_wal ?sync t d | None -> ());
    I.evolve t Scenarios.Tasky.bidel_initial;
    I.evolve t Scenarios.Tasky.bidel_do;
    I.evolve t Scenarios.Tasky.bidel_tasky2;
    Scenarios.Tasky.load_tasks ~rng t tasks;
    (t, rng)
  in
  let insert_cost (t, rng) base =
    let db = I.database t in
    ns
      (W.time_unit (fun () ->
           for i = 1 to batch do
             ignore
               (Minidb.Engine.exec db
                  (Scenarios.Tasky.tasky_insert rng (base + i)))
           done)
      /. float_of_int batch)
  in
  let t_plain = build () in
  let dir = Scenarios.Faults.fresh_dir () in
  let t_wal = build ~dir () in
  let dir_fsync = Scenarios.Faults.fresh_dir () in
  let t_fsync = build ~sync:Minidb.Wal.Fsync ~dir:dir_fsync () in
  let configs = [| t_plain; t_wal; t_fsync |] in
  let best =
    interleaved_min ~runs configs (fun _ t r ->
        insert_cost t (900_000 + (r * batch)))
  in
  let plain = best.(0) and flush = best.(1) and fsync = best.(2) in
  let t_wal = fst t_wal and t_fsync = fst t_fsync in
  I.detach_wal t_fsync;
  Scenarios.Faults.rm_rf dir_fsync;
  let records = I.current_changeset t_wal in
  let committed_dump = I.dump t_wal in
  I.detach_wal t_wal;
  let time_recover () =
    let t0 = Unix.gettimeofday () in
    let r = I.recover dir in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let r1, genesis_ms = time_recover () in
  if I.dump r1 <> committed_dump then
    failwith "recovered dump differs from the pre-shutdown committed state";
  I.checkpoint r1;
  I.detach_wal r1;
  let r2, ck_ms = time_recover () in
  if I.dump r2 <> committed_dump then
    failwith "checkpointed recovery differs from the committed state";
  I.detach_wal r2;
  Scenarios.Faults.rm_rf dir;
  let overhead = flush /. Float.max 1e-9 plain in
  let overhead_fsync = fsync /. Float.max 1e-9 plain in
  Fmt.pr "%-24s %12s %12s@." "" "ns/op" "vs plain";
  Fmt.pr "%-24s %9.0f ns@." "insert_plain" plain;
  Fmt.pr "%-24s %9.0f ns %9s@." "insert_wal_flush" flush
    (Fmt.str "x%.3f" overhead);
  Fmt.pr "%-24s %9.0f ns %9s@." "insert_wal_fsync" fsync
    (Fmt.str "x%.3f" overhead_fsync);
  Fmt.pr
    "WAL write overhead x%.3f (gate x%.2f); %d committed changesets in the \
     log@."
    overhead gate records;
  Fmt.pr "%-24s %9.1f ms   (replay of all %d changesets)@." "recover_genesis"
    genesis_ms records;
  Fmt.pr "%-24s %9.1f ms   (checkpoint at head + empty tail)@."
    "recover_checkpoint" ck_ms;
  (match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 512 in
    let addf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
    addf "{\n";
    addf "  \"baseline\": \"PR8\",\n";
    addf "  \"unit\": \"ns/op\",\n";
    addf "  \"tasks\": %d,\n" tasks;
    addf "  \"inserts_per_batch\": %d,\n" batch;
    addf "  \"runs\": %d,\n" runs;
    addf "  \"log_records\": %d,\n" records;
    addf "  \"wal_write_overhead\": %.4f,\n" overhead;
    addf "  \"wal_write_overhead_fsync\": %.4f,\n" overhead_fsync;
    addf "  \"recovery_genesis_ms\": %.2f,\n" genesis_ms;
    addf "  \"recovery_checkpoint_ms\": %.2f,\n" ck_ms;
    addf "  \"experiments\": {\n";
    addf "    \"insert_plain\": %.0f,\n" plain;
    addf "    \"insert_wal_flush\": %.0f,\n" flush;
    addf "    \"insert_wal_fsync\": %.0f\n" fsync;
    addf "  }\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Fmt.pr "wrote %s@." path);
  (* The ratio gate is only meaningful when the baseline statement carries
     its default-scale cost: the log adds a *fixed* per-statement cost
     (encode + checksum + one write), so at tiny smoke scales it is divided
     by a much cheaper insert and the ratio inflates arbitrarily. Below the
     default task count the same contract is enforced as an absolute
     budget: the log may add at most (gate - 1) x the default-scale insert
     cost (~20 us). *)
  let overhead_ns = flush -. plain in
  (* 15% of the ~20 us default-scale insert is ~3 us; the smoke budget adds
     headroom for scheduler noise at millisecond batch times while still
     catching encoder-class regressions (the Fmt-based frame encoder this
     gate replaced cost ~7 us per statement) *)
  let budget_ns = 5_000.0 in
  if tasks >= 2_000 then begin
    if overhead > gate then
      failwith
        (Fmt.str "WAL write overhead x%.3f exceeds the x%.2f gate" overhead
           gate)
  end
  else begin
    Fmt.pr
      "(small scale: gating the absolute overhead, %.0f ns against the \
       %.0f ns budget)@."
      overhead_ns budget_ns;
    if overhead_ns > budget_ns then
      failwith
        (Fmt.str
           "WAL write overhead %.0f ns/statement exceeds the %.0f ns budget"
           overhead_ns budget_ns)
  end;
  overhead

(* --- compiled batch executor (BENCH_PR9.json) ------------------------------- *)

(** Cold read cost through the compiled columnar executor vs the row
    interpreter (BENCH_PR9.json). The TasKy read suite's local, distance-2
    and Do! statements are measured cache-off (every read pays full
    delta-code evaluation) with batch execution on and off, interleaved
    best-of-rounds ({!interleaved_min}); toggling drops the tables' column
    snapshots, so each batch round's warm-up read re-pays extraction and the
    steady-state figures are honest about amortization. At full scale (>= 100k tasks) the cold
    distance-2 read must come out at least [gate]x faster through the
    batch pipeline; below that the ratio is only reported, since per-read
    constants dominate tiny tables. The Wikimedia genealogy is then read
    at {e every} version — the per-version latencies land in the JSON —
    and each version's answer is asserted identical (sorted) between the
    two executors, as is the link/page join at the materialized version. *)
let batch ?out ?(gate = 2.0) scale =
  section "Batch executor: cold reads batch vs row, all Wikimedia versions";
  let tasks = scale.batch_tasks in
  let reads = if tasks >= 100_000 then 2 else 25 in
  let runs = scale.runs in
  let rng = Scenarios.Rng.create ~seed:59 () in
  let t = Scenarios.Tasky.setup_full ~tasks () in
  I.set_cache t false;
  let db = I.database t in
  let q_local = Scenarios.Tasky.tasky_read rng in
  let q_dist2 = Scenarios.Tasky.tasky2_read rng in
  let q_do = Scenarios.Tasky.do_read rng in
  let pair sql =
    let best =
      interleaved_min ~runs [| true; false |] (fun _ enabled _ ->
          I.set_batch t enabled;
          ns (repeated_read_cost db ~reads sql))
    in
    I.set_batch t true;
    (best.(0), best.(1))
  in
  let local_b, local_r = pair q_local in
  let dist2_b, dist2_r = pair q_dist2 in
  let do_b, do_r = pair q_do in
  let sp b r = r /. Float.max 1e-9 b in
  let speedup_dist2 = sp dist2_b dist2_r in
  Fmt.pr "%-24s %12s %12s %10s@." (Fmt.str "TasKy (%d tasks)" tasks) "batch"
    "row" "speedup";
  List.iter
    (fun (name, b, r) ->
      Fmt.pr "%-24s %9.0f ns %9.0f ns %9s@." name b r (Fmt.str "x%.2f" (sp b r)))
    [
      ("read_local_cold", local_b, local_r);
      ("read_dist2_cold", dist2_b, dist2_r);
      ("read_do_dist2_cold", do_b, do_r);
    ];
  (* Wikimedia: a page read at every version of the genealogy, both modes,
     answers compared; plus the link/page join at the materialized version *)
  let wt, names = Scenarios.Wikimedia.build ~versions:scale.fig12_versions () in
  I.set_cache wt false;
  let n = Array.length names in
  let v_mid = names.(64 * (n - 1) / 100) in
  Scenarios.Wikimedia.load wt ~version:v_mid ~pages:scale.fig12_pages
    ~links:scale.fig12_links;
  I.materialize wt [ v_mid ];
  let wdb = I.database wt in
  let wiki_reads = if n >= 100 then 1 else 3 in
  let both_modes what sql =
    I.set_batch wt true;
    let b_rows = List.sort compare (I.query_rows wt sql) in
    let b_ns = ns (repeated_read_cost wdb ~reads:wiki_reads sql) in
    I.set_batch wt false;
    let r_rows = List.sort compare (I.query_rows wt sql) in
    let r_ns = ns (repeated_read_cost wdb ~reads:wiki_reads sql) in
    I.set_batch wt true;
    if b_rows <> r_rows then
      failwith
        (Fmt.str "batch and row executors disagree on %s (%s)" what sql);
    (b_ns, r_ns)
  in
  let per_version =
    Array.to_list
      (Array.map
         (fun version ->
           let sql =
             Scenarios.Wikimedia.query_page_by_title ~version ~i:7
           in
           let b_ns, r_ns = both_modes version sql in
           (version, b_ns, r_ns))
         names)
  in
  let join_b, join_r =
    both_modes "link/page join"
      (Scenarios.Wikimedia.query_link_count ~version:v_mid)
  in
  let mean f =
    List.fold_left (fun a x -> a +. f x) 0.0 per_version
    /. float_of_int (List.length per_version)
  in
  let mean_b = mean (fun (_, b, _) -> b) in
  let mean_r = mean (fun (_, _, r) -> r) in
  Fmt.pr
    "Wikimedia (%d versions, %d pages, %d links), materialized at %s:@." n
    scale.fig12_pages scale.fig12_links v_mid;
  if n <= 24 then
    List.iter
      (fun (v, b, r) ->
        Fmt.pr "  %-20s %9.0f ns %9.0f ns %9s@." v b r
          (Fmt.str "x%.2f" (sp b r)))
      per_version
  else
    Fmt.pr
      "  page read over all versions: mean %9.0f ns batch, %9.0f ns row \
       (x%.2f)@."
      mean_b mean_r (sp mean_b mean_r);
  Fmt.pr "  %-20s %9.0f ns %9.0f ns %9s@." "link/page join" join_b join_r
    (Fmt.str "x%.2f" (sp join_b join_r));
  Fmt.pr
    "every version answered identically under both executors; cold dist-2 \
     speedup x%.2f (gate x%.2f at full scale)@."
    speedup_dist2 gate;
  (match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 4096 in
    let addf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
    addf "{\n";
    addf "  \"baseline\": \"PR9\",\n";
    addf "  \"unit\": \"ns/op\",\n";
    addf "  \"tasks\": %d,\n" tasks;
    addf "  \"reads_per_batch\": %d,\n" reads;
    addf "  \"runs\": %d,\n" runs;
    addf "  \"gate\": %.2f,\n" gate;
    addf "  \"speedup_dist2_cold\": %.4f,\n" speedup_dist2;
    addf "  \"speedup_do_dist2_cold\": %.4f,\n" (sp do_b do_r);
    addf "  \"speedup_local_cold\": %.4f,\n" (sp local_b local_r);
    addf "  \"experiments\": {\n";
    addf "    \"read_local_batch\": %.0f,\n" local_b;
    addf "    \"read_local_row\": %.0f,\n" local_r;
    addf "    \"read_dist2_batch\": %.0f,\n" dist2_b;
    addf "    \"read_dist2_row\": %.0f,\n" dist2_r;
    addf "    \"read_do_dist2_batch\": %.0f,\n" do_b;
    addf "    \"read_do_dist2_row\": %.0f\n" do_r;
    addf "  },\n";
    addf "  \"wikimedia\": {\n";
    addf "    \"versions\": %d,\n" n;
    addf "    \"pages\": %d,\n" scale.fig12_pages;
    addf "    \"links\": %d,\n" scale.fig12_links;
    addf "    \"materialized_at\": %S,\n" v_mid;
    addf "    \"link_join_batch\": %.0f,\n" join_b;
    addf "    \"link_join_row\": %.0f,\n" join_r;
    addf "    \"per_version\": [\n";
    List.iteri
      (fun i (v, b, r) ->
        addf "      {\"version\": %S, \"batch_ns\": %.0f, \"row_ns\": %.0f}%s\n"
          v b r
          (if i = List.length per_version - 1 then "" else ","))
      per_version;
    addf "    ]\n";
    addf "  }\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Fmt.pr "wrote %s@." path);
  (* Gate only where the claim lives: at full scale the scans and joins
     dominate and the compiled pipeline must pay off by at least [gate]x;
     at small scales per-statement constants (parse, plan, dispatch) drown
     the column work, so the ratio is reported but not enforced. *)
  if tasks >= 100_000 then begin
    if speedup_dist2 < gate then
      failwith
        (Fmt.str
           "cold dist-2 batch speedup x%.2f falls short of the x%.2f gate"
           speedup_dist2 gate)
  end
  else
    Fmt.pr "(small scale: reporting only; the x%.2f gate applies at >= 100k \
            tasks)@."
      gate;
  speedup_dist2

(* --- hierarchical tracing (BENCH_PR10.json) --------------------------------- *)

(** Read cost with hierarchical tracing collecting vs switched off
    (BENCH_PR10.json). The PR9 read suite's statements are measured
    cache-off (every read pays full delta-code evaluation, so every scan,
    view expansion and join on the way records a child span) with telemetry
    on and off, interleaved best-of-rounds ({!interleaved_min}). At full
    scale (>= 100k tasks) tracing may cost at most [gate]x the untraced
    read; below that the ratio is only reported, since the fixed per-span
    cost is divided by ever-cheaper reads. Profile mode (exact per-operator
    row counts) and the rendering paths (trace trees, the OpenMetrics
    exposition) are measured too but only reported — they run on demand,
    never on the hot path. *)
let obs ?out ?(gate = 1.02) scale =
  section "Observability: read overhead with hierarchical tracing on vs off";
  let tasks = scale.fig8_tasks in
  let reads = if tasks >= 100_000 then 3 else 25 in
  let runs = max 5 scale.runs in
  let rng = Scenarios.Rng.create ~seed:67 () in
  let t = Scenarios.Tasky.setup_full ~tasks () in
  I.set_cache t false;
  let db = I.database t in
  let q_local = Scenarios.Tasky.tasky_read rng in
  let q_dist2 = Scenarios.Tasky.tasky2_read rng in
  let q_do = Scenarios.Tasky.do_read rng in
  let pair sql =
    let best =
      interleaved_min ~runs [| false; true |] (fun _ tel _ ->
          I.set_telemetry t tel;
          ns (repeated_read_cost db ~reads sql))
    in
    I.set_telemetry t true;
    (best.(0), best.(1))
  in
  let suite =
    [
      ("read_local_cold", pair q_local);
      ("read_dist2_cold", pair q_dist2);
      ("read_do_dist2_cold", pair q_do);
    ]
  in
  let ratio (off, on) = on /. Float.max 1e-9 off in
  Fmt.pr "%-24s %12s %12s %10s@."
    (Fmt.str "TasKy (%d tasks)" tasks)
    "tracing off" "tracing on" "overhead";
  List.iter
    (fun (name, ((off, on) as p)) ->
      Fmt.pr "%-24s %9.0f ns %9.0f ns %9s@." name off on
        (Fmt.str "x%.3f" (ratio p)))
    suite;
  let worst =
    List.fold_left (fun acc (_, p) -> Float.max acc (ratio p)) 0.0 suite
  in
  (* the on-demand paths: exact row counts, tree rendering, the exposition *)
  let m = db.Minidb.Database.metrics in
  Minidb.Metrics.set_detail m true;
  let detail_on = ns (repeated_read_cost db ~reads q_dist2) in
  Minidb.Metrics.set_detail m false;
  let traces = I.recent_traces ~limit:8 t in
  let render_ms =
    1000.0
    *. W.time_unit (fun () ->
           List.iter
             (fun tr -> ignore (Inverda.Telemetry.trace_tree_text tr))
             traces)
  in
  let metrics_ms =
    1000.0 *. W.time_unit (fun () -> ignore (I.metrics_text t))
  in
  Fmt.pr "max read overhead: x%.3f (gate x%.2f, armed at >= 100k tasks)@."
    worst gate;
  Fmt.pr "%-24s %9.0f ns   (exact row counts, on demand)@."
    "read_dist2_profile" detail_on;
  Fmt.pr "%-24s %9.3f ms   (%d trees)@." "render_trace_trees" render_ms
    (List.length traces);
  Fmt.pr "%-24s %9.3f ms@." "openmetrics_export" metrics_ms;
  (match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 512 in
    let addf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
    addf "{\n";
    addf "  \"baseline\": \"PR10\",\n";
    addf "  \"unit\": \"ns/op\",\n";
    addf "  \"tasks\": %d,\n" tasks;
    addf "  \"reads_per_batch\": %d,\n" reads;
    addf "  \"runs\": %d,\n" runs;
    addf "  \"max_read_overhead\": %.4f,\n" worst;
    addf "  \"read_dist2_profile\": %.0f,\n" detail_on;
    addf "  \"render_trace_trees_ms\": %.3f,\n" render_ms;
    addf "  \"openmetrics_export_ms\": %.3f,\n" metrics_ms;
    addf "  \"experiments\": {\n";
    let n = List.length suite in
    List.iteri
      (fun i (name, ((off, on) as p)) ->
        addf "    \"%s_off\": %.0f,\n" name off;
        addf "    \"%s_on\": %.0f,\n" name on;
        addf "    \"%s_overhead\": %.4f%s\n" name (ratio p)
          (if i = n - 1 then "" else ","))
      suite;
    addf "  }\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Fmt.pr "wrote %s@." path);
  if tasks >= 100_000 then begin
    if worst > gate then
      failwith
        (Fmt.str "tracing read overhead x%.3f exceeds the x%.2f gate" worst
           gate)
  end
  else
    Fmt.pr
      "(small scale: reporting only; the x%.2f gate applies at >= 100k \
       tasks)@."
      gate;
  worst
