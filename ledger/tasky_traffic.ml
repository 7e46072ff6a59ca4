(** The two TasKy workloads: TasKy, Do! and TasKy2 co-existing (the
    paper's Figure 1), driven by a generator that knows every live row.

    The generator assigns row keys itself, far above the engine's global id
    counter (which numbers generated keys and skolem identifiers), so the
    two never meet, and every key it knows is the key the engine stored.
    Knowing the live set lets point statements always hit a row and lets
    the answer checks predict every count. *)

module I = Inverda.Api
module H = Harness
module Rng = Scenarios.Rng
module T = Scenarios.Tasky

let key_base = 1_000_000_000

(* Live keys with O(1) insert, delete and uniform pick. *)
type pool = { mutable keys : int array; mutable n : int; pos : (int, int) Hashtbl.t }

let pool () = { keys = Array.make 1024 0; n = 0; pos = Hashtbl.create 1024 }

let pool_add p k =
  if p.n = Array.length p.keys then begin
    let a = Array.make (2 * p.n) 0 in
    Array.blit p.keys 0 a 0 p.n;
    p.keys <- a
  end;
  p.keys.(p.n) <- k;
  Hashtbl.replace p.pos k p.n;
  p.n <- p.n + 1

let pool_remove p k =
  match Hashtbl.find_opt p.pos k with
  | None -> ()
  | Some i ->
    let last = p.keys.(p.n - 1) in
    p.keys.(i) <- last;
    Hashtbl.replace p.pos last i;
    Hashtbl.remove p.pos k;
    p.n <- p.n - 1

type model = {
  rng : Rng.t;
  urgent : pool;  (** prio = 1: the rows Do! shows *)
  other : pool;
  mutable next_key : int;
  mutable fresh : int;  (** numbers the text of written rows *)
  mutable authors : int array;  (** TasKy2.Author keys, for inserts there *)
  mutable name_turn : int;
  mutable key_turn : int;
}

type version = TasKy | Do | TasKy2

let view = function
  | TasKy -> "TasKy.Task"
  | Do -> "Do!.Todo"
  | TasKy2 -> "TasKy2.Task"

let live m = m.urgent.n + m.other.n

(* A live key visible in [version]: Do! shows only the urgent rows. *)
let pick_key m version =
  match version with
  | Do -> if m.urgent.n = 0 then None else Some (m.urgent.keys.(Rng.int m.rng m.urgent.n))
  | _ ->
    let n = live m in
    if n = 0 then None
    else
      let r = Rng.int m.rng n in
      Some
        (if r < m.urgent.n then m.urgent.keys.(r)
         else m.other.keys.(r - m.urgent.n))

let next m =
  m.fresh <- m.fresh + 1;
  m.fresh

let new_key m =
  let k = m.next_key in
  m.next_key <- k + 1;
  k

(* Inserted rows take their authors in turn rather than at random, and the
   numbers in written text have a fixed width: whatever the seed, a run then
   writes statements of nearly the same lengths, so the log bytes per write
   repeat to within a byte or two per run. *)
let next_name m =
  m.name_turn <- m.name_turn + 1;
  T.authors.(m.name_turn mod Array.length T.authors)

let next_author_key m =
  m.key_turn <- m.key_turn + 1;
  m.authors.(m.key_turn mod Array.length m.authors)

(* --- statements --------------------------------------------------------- *)

let expect_rows ctx sql n = function
  | Some (rel : Minidb.Exec.relation) ->
    let got = List.length rel.Minidb.Exec.rel_rows in
    H.check ctx (got = n) "%s: %d rows, expected %d" (H.clip sql) got n
  | None -> ()

(** A point read by key. *)
let point_read ctx m version =
  match pick_key m version with
  | None -> ()
  | Some k ->
    let sql =
      match version with
      | TasKy -> Printf.sprintf "SELECT author, task, prio FROM TasKy.Task WHERE p = %d" k
      | Do -> Printf.sprintf "SELECT author, task FROM Do!.Todo WHERE p = %d" k
      | TasKy2 -> Printf.sprintf "SELECT task, prio, author FROM TasKy2.Task WHERE p = %d" k
    in
    expect_rows ctx sql 1 (H.read ctx sql)

(** The Figure 8/11 reads: every urgent task, through each version. *)
let scan_read ctx m version =
  let sql =
    match version with
    | TasKy -> T.tasky_read ()
    | Do -> T.do_read ()
    | TasKy2 -> T.tasky2_read ()
  in
  expect_rows ctx sql m.urgent.n (H.read ctx sql)

(** TasKy2 tasks per author; the counts must add up to every task. *)
let group_read ctx m =
  let sql = "SELECT author, COUNT(*) FROM TasKy2.Task GROUP BY author" in
  match H.read ctx sql with
  | Some rel ->
    let sum =
      List.fold_left
        (fun acc row ->
          match row.(1) with Minidb.Value.Int n -> acc + n | _ -> acc)
        0 rel.Minidb.Exec.rel_rows
    in
    H.check ctx (sum = live m) "%s: counts add up to %d, expected %d" sql sum (live m)
  | None -> ()

let insert ctx m version =
  let k = new_key m and i = next m in
  let prio = match version with Do -> 1 | _ -> T.random_prio m.rng in
  let sql =
    match version with
    | TasKy ->
      Printf.sprintf "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (%d, '%s', 'new-%06d', %d)"
        k (next_name m) i prio
    | Do ->
      Printf.sprintf "INSERT INTO Do!.Todo (p, author, task) VALUES (%d, '%s', 'do-%06d')" k
        (next_name m) i
    | TasKy2 ->
      Printf.sprintf "INSERT INTO TasKy2.Task (p, task, prio, author) VALUES (%d, 'new2-%06d', %d, %d)"
        k i prio (next_author_key m)
  in
  H.write ctx sql;
  pool_add (if prio = 1 then m.urgent else m.other) k

let update ctx m version =
  match pick_key m version with
  | None -> ()
  | Some k ->
    H.write ctx
      (Printf.sprintf "UPDATE %s SET task = 'upd-%06d' WHERE p = %d" (view version) (next m) k)

let delete ctx m version =
  match pick_key m version with
  | None -> ()
  | Some k ->
    H.write ctx (Printf.sprintf "DELETE FROM %s WHERE p = %d" (view version) k);
    pool_remove m.urgent k;
    pool_remove m.other k

type kind = Read | Insert | Update | Delete

(* The paper's statement mix, 50/20/20/10 (reads/inserts/updates/deletes),
   as the smallest deck with those proportions. *)
let paper_kinds =
  let m = Scenarios.Workload.paper_mix in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = List.fold_left gcd 0 [ m.reads; m.inserts; m.updates; m.deletes ] in
  List.concat
    [
      H.copies (m.reads / g) Read;
      H.copies (m.inserts / g) Insert;
      H.copies (m.updates / g) Update;
      H.copies (m.deletes / g) Delete;
    ]

let write_kinds = List.filter (( <> ) Read) paper_kinds

let op ctx m ~read (version, kind) =
  match kind with
  | Read -> read ctx m version
  | Insert -> insert ctx m version
  | Update -> update ctx m version
  | Delete -> delete ctx m version

(* --- set-up and checks ---------------------------------------------------- *)

(** A fresh instance with its log in [dir], the three versions and
    [tasks] rows loaded through TasKy. *)
let setup ~seed ~tasks dir =
  let api = I.create () in
  I.attach_wal api dir;
  List.iter (I.evolve api) [ T.bidel_initial; T.bidel_do; T.bidel_tasky2 ];
  let m =
    {
      rng = Rng.create ~seed ();
      urgent = pool ();
      other = pool ();
      next_key = key_base;
      fresh = 0;
      authors = [||];
      name_turn = 0;
      key_turn = 0;
    }
  in
  for i = 1 to tasks do
    let author = Rng.pick m.rng T.authors in
    let prio = T.random_prio m.rng in
    let k = new_key m in
    ignore
      (I.exec_sql api
         (Printf.sprintf
            "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (%d, '%s', 'task-%d', %d)"
            k author i prio));
    pool_add (if prio = 1 then m.urgent else m.other) k
  done;
  m.authors <-
    I.query_rows api "SELECT p FROM TasKy2.Author"
    |> List.filter_map (function [ Minidb.Value.Int p ] -> Some p | _ -> None)
    |> List.sort compare |> Array.of_list;
  (api, m)

let versions = [ TasKy; Do; TasKy2 ]

(* Every version view, as a digest of its sorted rows. *)
let answers api =
  String.concat " "
    (List.map (fun v -> H.answer api ("SELECT * FROM " ^ view v)) versions
    @ [ H.answer api "SELECT * FROM TasKy2.Author" ])

(** Each version shows exactly the rows the generator expects. *)
let check_counts ctx m =
  List.iter
    (fun v ->
      let expected = match v with Do -> m.urgent.n | _ -> live m in
      let got =
        Minidb.Value.as_int
          (List.hd (List.hd (I.query_rows ctx.H.api ("SELECT COUNT(*) FROM " ^ view v))))
      in
      H.check ctx (got = expected) "%s holds %d rows, the generator expects %d" (view v)
        got expected)
    versions

(* Tail writes of the administrative rounds: the mix's writes over the three
   versions. *)
let tail_write m =
  let d = H.deck m.rng (H.pairs [ TasKy; Do; TasKy2 ] write_kinds) in
  fun ctx -> op ctx m ~read:point_read (H.deal d)

let rounds_of m =
  {
    H.evolves = 3;
    evolve_from = "TasKy2";
    evolve_table = "Task";
    materialize = [ "TasKy2" ];
    restore = [ "TasKy" ];
    answers;
    as_of_query = "SELECT p, task, prio FROM TasKy.Task";
    tail_write = tail_write m;
  }

let run_common env ~tail ~rounds ~setup ~warm ~segment =
  let setup_s, dir, (api, m) = setup () in
  let ctx = H.make_ctx env api dir in
  let top_heap_mb =
    H.run_phases ctx ~warm:(fun () -> warm ctx m) ~segment:(fun () -> segment ctx m) ~rounds
      (rounds_of m)
  in
  check_counts ctx m;
  H.finish ctx ~setup_s ~tail ~top_heap_mb

(* --- the workloads --------------------------------------------------------- *)

(** Point statements by key in the paper's mix, spread 40/20/40 over
    TasKy/Do!/TasKy2: [warm] whole decks of 50, then [rounds] stretches of
    [decks] decks, each followed by an administrative round. *)
let oltp env ~tasks ~reps ~warm ~decks ~rounds =
  let cards = H.pairs [ TasKy; TasKy; Do; TasKy2; TasKy2 ] paper_kinds in
  let deal n ctx m =
    let d = H.deck m.rng cards in
    for _ = 1 to n * List.length cards do
      op ctx m ~read:point_read (H.deal d)
    done
  in
  run_common env ~tail:0.99 ~rounds
    ~setup:(fun () -> H.repeated_setup env ~reps (setup ~seed:env.H.seed ~tasks))
    ~warm:(deal warm) ~segment:(deal decks)

(** The Figure 8 reads plus a TasKy2 GROUP BY, in equal shares; after every
    ten reads, ten TasKy inserts invalidate the caches the reads built.
    [warm] such blocks, then [rounds] stretches of [blocks] blocks, each
    followed by an administrative round; even counts, so that the reads are
    whole decks of four. *)
let scan env ~tasks ~reps ~warm ~blocks ~rounds =
  let run n ctx m =
    let d = H.deck m.rng [ `TasKy; `Do; `TasKy2; `Group ] in
    for _ = 1 to n do
      for _ = 1 to 10 do
        match H.deal d with
        | `TasKy -> scan_read ctx m TasKy
        | `Do -> scan_read ctx m Do
        | `TasKy2 -> scan_read ctx m TasKy2
        | `Group -> group_read ctx m
      done;
      for _ = 1 to 10 do
        insert ctx m TasKy
      done
    done
  in
  run_common env ~tail:0.90 ~rounds
    ~setup:(fun () -> H.repeated_setup env ~reps (setup ~seed:env.H.seed ~tasks))
    ~warm:(run warm) ~segment:(run blocks)
