(** The Wikimedia workload: a long schema-version history with the SMO mix
    of the paper's Table 4, page and link data loaded at the first version,
    and reads and inserts at versions drawn uniformly over the history.

    The history is produced as BiDEL text before any engine exists — the
    SMO choices of [Scenarios.Wikimedia.build], without running them — so
    each set-up can attach its log first and evolve the whole history
    through it, which is what lets recovery rebuild it. *)

module I = Inverda.Api
module H = Harness
module Rng = Scenarios.Rng
module Wk = Scenarios.Wikimedia

(** The [versions] CREATE SCHEMA VERSION statements [Wk.build ~versions]
    evolves, in order, and the version names. This repeats the SMO choices
    of [Wk.build] as text; {!check_history} tests that the two agree. *)
let history ~versions =
  let scale n = max 1 (n * (versions - 1) / 170) in
  let counts =
    if versions >= 171 then Wk.full_counts
    else List.map (fun (k, n) -> (k, scale n)) Wk.full_counts
  in
  let st =
    {
      Wk.tables =
        [
          { Wk.t_name = "page"; t_cols = [ "title"; "namespace" ]; core = true };
          { Wk.t_name = "link"; t_cols = [ "src"; "dst" ]; core = true };
          { Wk.t_name = "f0"; t_cols = [ "c0a"; "c0b"; "c0c" ]; core = false };
        ];
      twins = [];
      next_filler = 0;
      next_col = 0;
      smos = [];
    }
  in
  let remaining = Hashtbl.create 8 in
  List.iter
    (fun (k, n) -> Hashtbl.replace remaining k (if k = Wk.Create then max 0 (n - 3) else n))
    counts;
  let total_left () = Hashtbl.fold (fun _ n acc -> acc + n) remaining 0 in
  let script =
    ref
      [
        "CREATE SCHEMA VERSION v001 WITH CREATE TABLE page(title, namespace); \
         CREATE TABLE link(src, dst); CREATE TABLE f0(c0a, c0b, c0c);";
      ]
  in
  for v = 2 to versions do
    let per = max 1 ((total_left () + versions - v) / (versions - v + 1)) in
    let ops = ref [] and attempts = ref 0 in
    while List.length !ops < per && total_left () > 0 && !attempts < 50 do
      incr attempts;
      (* the kind with the largest share of its budget left goes first *)
      let scored =
        List.filter (fun (k, _) -> Hashtbl.find remaining k > 0) counts
        |> List.map (fun (k, n0) ->
               (float_of_int (Hashtbl.find remaining k) /. float_of_int n0, k))
        |> List.sort (fun a b -> compare (fst b) (fst a))
      in
      let rec try_kinds = function
        | [] -> ()
        | (_, k) :: rest -> (
          match Wk.emit st k with
          | Some txt ->
            Hashtbl.replace remaining k (Hashtbl.find remaining k - 1);
            ops := txt :: !ops
          | None -> try_kinds rest)
      in
      try_kinds scored
    done;
    let body =
      match !ops with
      | [] -> [ Printf.sprintf "ADD COLUMN pad%d AS 0 INTO page" v ]
      | ops -> List.rev ops
    in
    script :=
      Printf.sprintf "CREATE SCHEMA VERSION v%03d FROM v%03d WITH %s;" v (v - 1)
        (String.concat "; " body)
      :: !script
  done;
  (List.rev !script, Array.init versions (fun i -> Printf.sprintf "v%03d" (i + 1)))

(* Pages the generator knows: key and namespace per title. *)
type model = {
  rng : Rng.t;
  names : string array;
  mutable titles : string array;
  mutable keys : int array;
  mutable spaces : int array;
  mutable pages : int;
  mutable next_key : int;
  mutable ns0_links : int;  (** links whose source page is in namespace 0 *)
}

let add_page m title ns =
  if m.pages = Array.length m.keys then begin
    let grow a x = Array.append a (Array.make (max 16 m.pages) x) in
    m.titles <- grow m.titles "";
    m.keys <- grow m.keys 0;
    m.spaces <- grow m.spaces 0
  end;
  let k = m.next_key in
  m.next_key <- k + 1;
  m.titles.(m.pages) <- title;
  m.keys.(m.pages) <- k;
  m.spaces.(m.pages) <- ns;
  m.pages <- m.pages + 1;
  k

(** A fresh instance with its log in [dir], the whole [script] evolved
    through it, and [pages] pages and [links] links loaded at the first
    version. *)
let setup ~seed ~script ~names ~pages ~links dir =
  let api = I.create () in
  I.attach_wal api dir;
  List.iter (I.evolve api) script;
  let m =
    {
      rng = Rng.create ~seed ();
      names;
      titles = [||];
      keys = [||];
      spaces = [||];
      pages = 0;
      next_key = Tasky_traffic.key_base;
      ns0_links = 0;
    }
  in
  let v = names.(0) in
  for i = 0 to pages - 1 do
    let title = Printf.sprintf "Page_%d" i and ns = Rng.int m.rng 16 in
    let k = add_page m title ns in
    ignore
      (I.exec_sql api
         (Printf.sprintf "INSERT INTO %s.page (p, title, namespace) VALUES (%d, '%s', %d)" v k
            title ns))
  done;
  for _ = 1 to links do
    let src = Rng.int m.rng pages and dst = Rng.int m.rng pages in
    if m.spaces.(src) = 0 then m.ns0_links <- m.ns0_links + 1;
    ignore
      (I.exec_sql api
         (Printf.sprintf "INSERT INTO %s.link (src, dst) VALUES (%d, %d)" v m.keys.(src)
            m.keys.(dst)))
  done;
  (api, m)

let rows (rel : Minidb.Exec.relation) =
  List.map Array.to_list rel.Minidb.Exec.rel_rows

let int n = Minidb.Value.Int n

let by_title ctx m version =
  let i = Rng.int m.rng m.pages in
  let sql =
    Printf.sprintf "SELECT p, namespace FROM %s.page WHERE title = '%s'" version m.titles.(i)
  in
  Option.iter
    (fun rel ->
      H.check ctx
        (rows rel = [ [ int m.keys.(i); int m.spaces.(i) ] ])
        "%s: wrong page" sql)
    (H.read ctx sql)

let by_key ctx m version =
  let i = Rng.int m.rng m.pages in
  let sql =
    Printf.sprintf "SELECT title, namespace FROM %s.page WHERE p = %d" version m.keys.(i)
  in
  Option.iter
    (fun rel ->
      H.check ctx
        (rows rel = [ [ Minidb.Value.Text m.titles.(i); int m.spaces.(i) ] ])
        "%s: wrong page" sql)
    (H.read ctx sql)

let link_count ctx m version =
  let sql = Wk.query_link_count ~version in
  Option.iter
    (fun rel ->
      H.check ctx (rows rel = [ [ int m.ns0_links ] ]) "%s: wrong count" sql)
    (H.read ctx sql)

(* Inserted pages go to namespaces 0 to 9: one digit, so that every seed
   writes statements of the same length and the log bytes per write are
   exact. *)
let insert ctx m version =
  let title = Printf.sprintf "New_%d" m.pages and ns = Rng.int m.rng 10 in
  let k = add_page m title ns in
  H.write ctx
    (Printf.sprintf "INSERT INTO %s.page (p, title, namespace) VALUES (%d, '%s', %d)" version
       k title ns)

(** [n] whole decks of 45 % page by title and 5 % the link/page join count
    (the Figure 12 queries), 40 % page by key and 10 % page inserts, in
    these shares at every version of the history. *)
let decks m n ctx =
  let kinds =
    List.concat
      [ H.copies 9 `Title; H.copies 8 `Key; H.copies 1 `Links; H.copies 2 `Insert ]
  in
  let cards = H.pairs (Array.to_list m.names) kinds in
  let d = H.deck m.rng cards in
  for _ = 1 to n * List.length cards do
    match H.deal d with
    | v, `Title -> by_title ctx m v
    | v, `Key -> by_key ctx m v
    | v, `Links -> link_count ctx m v
    | v, `Insert -> insert ctx m v
  done

(* Per sampled version (every tenth and the last), the digests of three
   pages by title and of the join count: answers every version must share
   and no migration may change. *)
let answers m api =
  let n = Array.length m.names in
  let sampled = List.sort_uniq compare (n - 1 :: List.init ((n + 9) / 10) (fun i -> 10 * i)) in
  List.map
    (fun i ->
      let v = m.names.(i) in
      Wk.query_link_count ~version:v
      :: List.map
           (fun j ->
             Printf.sprintf "SELECT p, namespace FROM %s.page WHERE title = '%s'" v
               m.titles.(j))
           [ 0; m.pages / 2; m.pages - 1 ]
      |> List.map (H.answer api)
      |> String.concat " ")
    sampled

(** The catalog [history ~versions] evolves must be the one [Wk.build
    ~versions] evolves: same description, same (empty) physical tables. *)
let check_history ctx ~versions =
  let script, _ = history ~versions in
  let api = I.create () in
  List.iter (I.evolve api) script;
  let built, _ = Wk.build ~versions () in
  H.check ctx
    (I.describe api = I.describe built && I.dump api = I.dump built)
    "the %d-version history differs from Scenarios.Wikimedia.build's" versions

(** [warm] decks, then [rounds] stretches of [decks] decks, each followed
    by an administrative round that materializes [materialize] and back. *)
let run env ~versions ~pages ~links ~materialize ~reps ~warm ~decks:n ~rounds ~check_versions =
  let script, names = history ~versions in
  let setup_s, dir, (api, m) =
    H.repeated_setup env ~reps (setup ~seed:env.H.seed ~script ~names ~pages ~links)
  in
  let ctx = H.make_ctx env api dir in
  List.iter (fun versions -> check_history ctx ~versions) check_versions;
  let top_heap_mb =
    H.run_phases ctx ~warm:(fun () -> decks m warm ctx) ~segment:(fun () -> decks m n ctx) ~rounds
      {
        H.evolves = 2;
        evolve_from = names.(Array.length names - 1);
        evolve_table = "page";
        materialize = [ materialize ];
        restore = [ names.(0) ];
        answers = (fun api -> String.concat " / " (answers m api));
        as_of_query = Printf.sprintf "SELECT p, title, namespace FROM %s.page" names.(0);
        tail_write = (fun ctx -> insert ctx m m.names.(Rng.int m.rng (Array.length m.names)));
      }
  in
  (match answers m ctx.H.api with
  | first :: rest ->
    H.check ctx
      (List.for_all (( = ) first) rest)
      "page and link answers differ between versions"
  | [] -> ());
  H.finish ctx ~setup_s ~tail:0.90 ~top_heap_mb
