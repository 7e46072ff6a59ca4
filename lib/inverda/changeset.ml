(** Changeset history on top of the {!Minidb.Wal} log.

    Every committed statement becomes one changeset: a monotone id (the WAL
    LSN), a record kind, the table version (or catalog object) it targeted,
    and the statement itself, re-executable through the public API. Kinds:

    - ["dml"] / ["ddl"] — SQL text, replayed through {!Minidb.Engine.exec};
    - ["bidel"] — a BiDEL statement printed by {!Bidel.Printer} (evolution,
      DROP SCHEMA VERSION, MATERIALIZE), replayed through [Api.evolve];
    - ["setmat"] — a low-level materialization flip (space-separated SMO
      ids), replayed through [Api.set_materialization];

    - ["memo"] — checkpoint-only: one skolem memo binding (tag = function
      name, payload = result and arguments as a dump row literal), restored
      before the log tail replays so identifier generation stays exactly
      reproducible.

    The session buffers records while a user transaction is open: they reach
    the log only on COMMIT (a ROLLBACK drops them), so the log never holds a
    statement whose effects did not commit, and recovery never replays one.
    The log is never truncated — [AS OF] reconstruction replays it from
    genesis — so checkpoints are pure acceleration. *)

module W = Minidb.Wal
module Sql = Minidb.Sql_ast

(** Record kinds that shape the schema/catalog rather than the data; a
    checkpoint carries this subsequence so recovery can rebuild the delta
    code before bulk-loading the dump. *)
let schema_kinds = [ "ddl"; "bidel"; "setmat" ]

let is_schema_kind k = List.mem k schema_kinds

type session = {
  dir : string;
  wal : W.t;
  mutable pending : (string * string * string) list;
      (** (kind, tag, payload) buffered inside an open user transaction,
          newest first *)
  mutable buffering : bool;
  mutable who : string;  (** audit author stamped on subsequent records *)
  mutable why : string;  (** audit reason stamped on subsequent records *)
}

(* --- audit annotations ----------------------------------------------------- *)

(* Who/why ride inside the frame tag, after unit separators — a character
   that cannot appear in object names or version identifiers — so the frame
   format, checksums and replay (which reads payloads, never tags) are
   untouched and old logs read back unchanged. *)
let audit_sep = '\x1f'

(** Set (or clear, with [""]) the author/reason stamped on every record this
    session appends from now on. *)
let set_author s ~who ~why =
  s.who <- who;
  s.why <- why

let stamp s tag =
  if s.who = "" && s.why = "" then tag
  else Fmt.str "%s%c%s%c%s" tag audit_sep s.who audit_sep s.why

(** [(bare_tag, who, why)] of a possibly-annotated frame tag. *)
let split_audit tag =
  match String.index_opt tag audit_sep with
  | None -> (tag, "", "")
  | Some i -> (
    let bare = String.sub tag 0 i in
    let rest = String.sub tag (i + 1) (String.length tag - i - 1) in
    match String.index_opt rest audit_sep with
    | None -> (bare, rest, "")
    | Some j ->
      ( bare,
        String.sub rest 0 j,
        String.sub rest (j + 1) (String.length rest - j - 1) ))

(** The tag with any audit annotation removed. *)
let bare_tag tag =
  let t, _, _ = split_audit tag in
  t

(** [Some (who, why)] when the record carries an audit annotation. *)
let audit_of (r : W.record) =
  match split_audit r.W.tag with
  | _, "", "" -> None
  | _, who, why -> Some (who, why)

(** Committed history, oldest first — read back from the file rather than
    retained in memory, so an attached session stays O(1) in log length
    (the append path must not grow the major heap per statement). *)
let history s =
  W.flush_buffered s.wal;
  fst (W.read_log s.dir)

(** Id of the newest durable changeset (0 before the first). *)
let current s = s.wal.W.next_lsn - 1

(** Append one record, honouring transaction buffering. *)
let append s ~kind ~tag ~payload =
  let tag = stamp s tag in
  if s.buffering then s.pending <- (kind, tag, payload) :: s.pending
  else begin
    ignore (W.append s.wal ~kind ~tag ~payload);
    W.commit s.wal
  end

let flush_txn s =
  let items = List.rev s.pending in
  s.pending <- [];
  s.buffering <- false;
  if items <> [] then begin
    List.iter
      (fun (kind, tag, payload) ->
        ignore (W.append s.wal ~kind ~tag ~payload))
      items;
    W.commit s.wal
  end

(** The statement sink installed into the engine: fired for every successful
    top-level user statement. Queries carry no effects and are skipped;
    transaction control drives the buffer. *)
let on_statement s stmt sql =
  match stmt with
  | Sql.Begin_txn ->
    s.pending <- [];
    s.buffering <- true
  | Sql.Commit -> flush_txn s
  | Sql.Rollback ->
    s.pending <- [];
    s.buffering <- false
  | _ -> (
    let tag = function [ t ] -> t | ts -> String.concat "," ts in
    match Minidb.Exec.span_shape stmt with
    | ("insert" | "update" | "delete"), targets ->
      append s ~kind:"dml" ~tag:(tag targets) ~payload:sql
    | "ddl", targets -> append s ~kind:"ddl" ~tag:(tag targets) ~payload:sql
    | _ -> ())

(** Open (or re-open) the log in [dir] for appending: repairs a torn tail,
    seeds the in-memory history from the existing records and positions the
    next LSN after both the log and the checkpoint. When the log holds no
    record and there is no checkpoint, [on_empty] runs first; if it raises,
    nothing is opened or created. *)
let attach ?sync ~on_empty dir =
  let records = W.repair_log dir in
  let ckpt = W.read_checkpoint dir in
  if records = [] && ckpt = None then on_empty ();
  let last_logged =
    List.fold_left (fun acc (r : W.record) -> max acc r.W.lsn) 0 records
  in
  let last_ckpt = match ckpt with Some ck -> ck.W.ck_lsn | None -> 0 in
  let wal = W.open_append ?sync ~next_lsn:(max last_logged last_ckpt + 1) dir in
  { dir; wal; pending = []; buffering = false; who = ""; why = "" }

let detach s = W.close s.wal

(* --- AS OF parsing -------------------------------------------------------- *)

(** Split a trailing [AS OF <changeset>] suffix off a SQL statement:
    [split_as_of "SELECT ... AS OF 42"] is [("SELECT ...", Some 42)];
    statements without the suffix come back unchanged. *)
let split_as_of sql =
  let s =
    let t = String.trim sql in
    if String.length t > 0 && t.[String.length t - 1] = ';' then
      String.trim (String.sub t 0 (String.length t - 1))
    else t
  in
  let ls = String.lowercase_ascii s in
  let needle = " as of " in
  let nlen = String.length needle in
  let rec last_from i acc =
    if i + nlen > String.length ls then acc
    else if String.sub ls i nlen = needle then last_from (i + 1) (Some i)
    else last_from (i + 1) acc
  in
  match last_from 0 None with
  | None -> (sql, None)
  | Some i -> (
    let suffix = String.trim (String.sub s (i + nlen) (String.length s - i - nlen)) in
    match int_of_string_opt suffix with
    | Some c when c >= 0 -> (String.trim (String.sub s 0 i), Some c)
    | _ -> (sql, None))
