(** Logical write-ahead log and checkpoint files.

    The log is a sequence of framed records, each carrying a logical
    statement (SQL text or a host-level operation serialized by the caller)
    tagged with the table version it targeted. Records are append-only and
    the log is never truncated except to repair a torn tail, so a full
    replay from genesis is always possible — that is what makes
    [AS OF <changeset>] reconstruction exact.

    Framing, one record:
    {v
    W1 <lsn> <kind> <taglen> <payloadlen> <checksum>\n
    <tag><payload>\n
    v}
    where [checksum] is FNV-1a (32-bit) over lsn, kind, tag and payload.
    A record that fails to parse, fails its checksum, or breaks LSN
    monotonicity marks the torn tail: everything from its offset on is
    discarded by {!repair_log}.

    A checkpoint is a single file written atomically (tmp + rename): a
    header with the covered LSN and host metadata, the schema-shaped record
    prefix the host wants replayed before data is loaded, and the
    deterministic {!Database.dump} bytes of the covered state. Recovery is
    checkpoint + replay of the log tail; both live in the host layer — this
    module only does file format and raw state loading. *)

type record = { lsn : int; kind : string; tag : string; payload : string }

type sync_mode =
  | No_sync  (** leave buffering to the OS; fastest, weakest *)
  | Flush  (** flush the channel on commit (survives process crash) *)
  | Fsync  (** fsync on commit (survives OS crash) *)

let log_file dir = Filename.concat dir "wal.log"
let checkpoint_file dir = Filename.concat dir "checkpoint"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- record framing ------------------------------------------------------ *)

(* a first-order loop (no closure over a ref cell) so the hot payload pass
   compiles to straight-line code; one checksum runs per committed statement *)
let fnv h s =
  let acc = ref h in
  for i = 0 to String.length s - 1 do
    acc :=
      (!acc lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !acc

let checksum r =
  let sep h = fnv h "\x00" in
  sep (fnv 0x811c9dc5 (string_of_int r.lsn))
  |> Fun.flip fnv r.kind |> sep
  |> Fun.flip fnv r.tag |> sep
  |> Fun.flip fnv r.payload

(* the frame header is built with plain buffer writes, not [Fmt]: one record
   is encoded per committed statement, so formatter overhead would tax every
   write the engine performs *)
let add_hex8 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf "0123456789abcdef".[(v lsr (i * 4)) land 0xF]
  done

let encode buf r =
  Buffer.add_string buf "W1 ";
  Buffer.add_string buf (string_of_int r.lsn);
  Buffer.add_char buf ' ';
  Buffer.add_string buf r.kind;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (String.length r.tag));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (String.length r.payload));
  Buffer.add_char buf ' ';
  add_hex8 buf (checksum r);
  Buffer.add_char buf '\n';
  Buffer.add_string buf r.tag;
  Buffer.add_string buf r.payload;
  Buffer.add_char buf '\n'

(** Decode one record at [pos]; [None] marks a torn/corrupt tail. *)
let decode s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub s pos (nl - pos) in
    match String.split_on_char ' ' header with
    | [ "W1"; lsn; kind; taglen; paylen; sum ] -> (
      match
        ( int_of_string_opt lsn,
          int_of_string_opt taglen,
          int_of_string_opt paylen,
          int_of_string_opt ("0x" ^ sum) )
      with
      | Some lsn, Some tl, Some pl, Some sum
        when tl >= 0 && pl >= 0 && kind <> "" ->
        let body = nl + 1 in
        if body + tl + pl + 1 > String.length s then None
        else if s.[body + tl + pl] <> '\n' then None
        else
          let r =
            {
              lsn;
              kind;
              tag = String.sub s body tl;
              payload = String.sub s (body + tl) pl;
            }
          in
          if checksum r <> sum then None else Some (r, body + tl + pl + 1)
      | _ -> None)
    | _ -> None)

let read_file path =
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  end

(** Decode records until the string ends or a record is torn; returns the
    good prefix and, when torn, the byte offset of the first bad record.
    [monotone] (default true, as in the log) additionally rejects a record
    whose LSN does not increase. *)
let scan ?(monotone = true) s =
  let rec go pos last acc =
    if pos >= String.length s then (List.rev acc, None)
    else
      match decode s pos with
      | Some (r, next) when (not monotone) || r.lsn > last ->
        go next r.lsn (r :: acc)
      | _ -> (List.rev acc, Some pos)
  in
  go 0 0 []

(** Read the log without touching it: good records plus the torn-tail
    offset, if any. *)
let read_log dir = scan (read_file (log_file dir))

(** Read the log and truncate a torn tail in place, so a subsequent append
    continues from the last good record. Returns the good records. *)
let repair_log dir =
  let path = log_file dir in
  match scan (read_file path) with
  | records, None -> records
  | records, Some bad ->
    Unix.truncate path bad;
    records

(* --- append handle ------------------------------------------------------- *)

type t = {
  dir : string;
  fd : Unix.file_descr;  (** the log, opened O_APPEND *)
  mutable next_lsn : int;
  mutable sync : sync_mode;
  mutable appended : int;  (** records appended through this handle *)
  buf : Buffer.t;  (** records encoded but not yet written to [fd] *)
  mutable observer : (op:string -> start_ns:int -> ns:int -> unit) option;
      (** telemetry hook: called after each timed append/flush/fsync *)
}

(** Open the log for appending. [next_lsn] must be one past the highest LSN
    already durable (in the log or covered by the checkpoint). *)
let open_append ?(sync = Flush) ~next_lsn dir =
  mkdir_p dir;
  let fd =
    Unix.openfile (log_file dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  {
    dir;
    fd;
    next_lsn;
    sync;
    appended = 0;
    buf = Buffer.create 256;
    observer = None;
  }

let set_observer t obs = t.observer <- obs

let observer_now () = int_of_float (Unix.gettimeofday () *. 1e9)

(* zero-cost when no observer is installed: the hot path pays one physical
   equality against [None] *)
let observed t op f =
  match t.observer with
  | None -> f ()
  | Some obs ->
    let t0 = observer_now () in
    let r = f () in
    obs ~op ~start_ns:t0 ~ns:(observer_now () - t0);
    r

let write_buf t =
  let n = Buffer.length t.buf in
  if n > 0 then begin
    let s = Buffer.contents t.buf in
    let rec loop ofs =
      if ofs < n then loop (ofs + Unix.write_substring t.fd s ofs (n - ofs))
    in
    loop 0;
    Buffer.clear t.buf
  end

(** Append one record; returns its LSN. Not durable until {!commit}: the
    record sits in the handle's buffer, so a multi-statement transaction
    reaches the file in one write. *)
let append t ~kind ~tag ~payload =
  observed t "append" (fun () ->
      let lsn = t.next_lsn in
      t.next_lsn <- lsn + 1;
      t.appended <- t.appended + 1;
      let r = { lsn; kind; tag; payload } in
      encode t.buf r;
      if Buffer.length t.buf >= 65_536 then write_buf t;
      r)

(** Make everything appended so far durable per the sync mode. *)
let commit t =
  match t.sync with
  | No_sync -> ()
  | Flush -> observed t "flush" (fun () -> write_buf t)
  | Fsync ->
    observed t "fsync" (fun () ->
        write_buf t;
        Unix.fsync t.fd)

(** Push buffered records to the file without changing the sync mode: lets
    a [No_sync] handle be read back (e.g. for history listings) without
    paying a write per commit. *)
let flush_buffered t = write_buf t

let close t =
  write_buf t;
  Unix.close t.fd

(* --- checkpoint file ----------------------------------------------------- *)

type checkpoint = {
  ck_lsn : int;  (** highest LSN whose effects the dump includes *)
  ck_meta : (string * string) list;  (** host key/value pairs (no newlines) *)
  ck_records : record list;
      (** schema-shaped prefix the host replays before loading the dump *)
  ck_dump : string;  (** deterministic {!Database.dump} of the covered state *)
}

let write_checkpoint dir ck =
  mkdir_p dir;
  let buf = Buffer.create (String.length ck.ck_dump + 1024) in
  Buffer.add_string buf "CKPT 1\n";
  Buffer.add_string buf (Fmt.str "LSN %d\n" ck.ck_lsn);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Fmt.str "META %s %s\n" k v))
    ck.ck_meta;
  Buffer.add_string buf (Fmt.str "RECORDS %d\n" (List.length ck.ck_records));
  List.iter (encode buf) ck.ck_records;
  Buffer.add_string buf (Fmt.str "DUMP %d\n" (String.length ck.ck_dump));
  Buffer.add_string buf ck.ck_dump;
  let tmp = checkpoint_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp (checkpoint_file dir)

(** Read the checkpoint back; [None] when absent or corrupt (a torn write
    can never be observed: the file is renamed into place only after an
    fsync, so corruption means external damage — callers fall back to a
    genesis replay of the never-truncated log). *)
let read_checkpoint dir =
  let s = read_file (checkpoint_file dir) in
  if s = "" then None
  else
    let line pos =
      match String.index_from_opt s pos '\n' with
      | None -> None
      | Some nl -> Some (String.sub s pos (nl - pos), nl + 1)
    in
    let ( let* ) = Option.bind in
    let* l0, pos = line 0 in
    if l0 <> "CKPT 1" then None
    else
      let* l1, pos = line pos in
      let* lsn =
        match String.split_on_char ' ' l1 with
        | [ "LSN"; n ] -> int_of_string_opt n
        | _ -> None
      in
      let rec metas pos acc =
        let* l, next = line pos in
        match String.index_opt l ' ' with
        | Some sp when String.sub l 0 sp = "META" -> (
          let rest = String.sub l (sp + 1) (String.length l - sp - 1) in
          match String.index_opt rest ' ' with
          | Some sp2 ->
            let k = String.sub rest 0 sp2 in
            let v = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
            metas next ((k, v) :: acc)
          | None -> None)
        | _ -> Some (List.rev acc, pos)
      in
      let* meta, pos = metas pos [] in
      let* lr, pos = line pos in
      let* nrec =
        match String.split_on_char ' ' lr with
        | [ "RECORDS"; n ] -> int_of_string_opt n
        | _ -> None
      in
      let rec records pos k acc =
        if k = 0 then Some (List.rev acc, pos)
        else
          let* r, next = decode s pos in
          records next (k - 1) (r :: acc)
      in
      let* records, pos = records pos nrec [] in
      let* ld, pos = line pos in
      let* dlen =
        match String.split_on_char ' ' ld with
        | [ "DUMP"; n ] -> int_of_string_opt n
        | _ -> None
      in
      if pos + dlen > String.length s then None
      else
        Some
          {
            ck_lsn = lsn;
            ck_meta = meta;
            ck_records = records;
            ck_dump = String.sub s pos dlen;
          }

(* --- dump loading -------------------------------------------------------- *)

let load_error fmt = Fmt.kstr (fun s -> raise (Database.Engine_error s)) fmt

(** Parse one value of a [ROW] line at [pos]: a ['']-quoted text literal
    (with doubled-quote escapes, exactly what {!Value.to_literal} emits) or
    a bare token up to the [ | ] separator. *)
let parse_value_at s pos =
  let n = String.length s in
  if pos < n && s.[pos] = '\'' then begin
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= n then load_error "dump: unterminated text literal in %s" s
      else if s.[i] = '\'' then
        if i + 1 < n && s.[i + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          go (i + 2)
        end
        else (Value.Text (Buffer.contents buf), i + 1)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go (pos + 1)
  end
  else begin
    let stop = ref n in
    (try
       for i = pos to n - 3 do
         if s.[i] = ' ' && s.[i + 1] = '|' && s.[i + 2] = ' ' then begin
           stop := i;
           raise Exit
         end
       done
     with Exit -> ());
    let tok = String.sub s pos (!stop - pos) in
    let v =
      match tok with
      | "NULL" -> Value.Null
      | "TRUE" -> Value.Bool true
      | "FALSE" -> Value.Bool false
      | _ -> (
        match int_of_string_opt tok with
        | Some i -> Value.Int i
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Value.Real f
          | None -> load_error "dump: unreadable value %S" tok))
    in
    (v, !stop)
  end

(** Parse a full [ROW] line body (the part after ["  ROW "]) back into the
    values {!Database.dump} printed. Caveat: a [Real] that prints without a
    decimal point (e.g. [5.]) reloads as [Int 5]; the two compare equal
    numerically and re-dump to the same bytes. *)
let parse_row s =
  let n = String.length s in
  if n = 0 then []
  else
    let rec values pos acc =
      let v, pos = parse_value_at s pos in
      if pos >= n then List.rev (v :: acc)
      else if pos + 3 <= n && String.sub s pos 3 = " | " then
        values (pos + 3) (v :: acc)
      else load_error "dump: malformed row %S at offset %d" s pos
    in
    values 0 []

let row_literal vs = String.concat " | " (List.map Value.to_literal vs)

let parse_table_header line =
  match (String.index_opt line '(', String.rindex_opt line ')') with
  | Some lp, Some rp when rp > lp ->
    let name = String.trim (String.sub line 0 lp) in
    let cols =
      String.sub line (lp + 1) (rp - lp - 1)
      |> String.split_on_char ','
      |> List.map String.trim
      |> List.filter (fun c -> c <> "")
    in
    let rest =
      String.trim (String.sub line (rp + 1) (String.length line - rp - 1))
    in
    let pk =
      if String.length rest > 3 && String.sub rest 0 3 = "PK=" then
        int_of_string_opt (String.sub rest 3 (String.length rest - 3))
      else None
    in
    (name, cols, pk)
  | _ -> load_error "dump: malformed TABLE header %S" line

(** Load a {!Database.dump} into [db] wholesale: every table is cleared and
    refilled with the dump's rows through raw {!Table.insert} (no triggers,
    no undo log, no write observers — the dump {e is} the committed state),
    missing tables are created with TEXT columns (the shape the delta-code
    generator uses for every physical table), [INDEX] lines are ensured and
    [SEQUENCE] lines restored. [VIEW] and [TRIGGER] lines are skipped: the
    caller replays the schema-shaped record prefix first, which recreates
    the delta code deterministically. *)
let load_dump db text =
  (* start from empty data everywhere, so a table the dump doesn't mention
     (there should be none after schema replay) doesn't survive with rows *)
  List.iter
    (fun obj ->
      match obj with
      | Database.Obj_table tbl -> Table.clear tbl
      | Database.Obj_view _ -> ())
    (Database.list_objects db);
  let current = ref None in
  let table_for name cols pk =
    match Database.find_table_opt db name with
    | Some tbl -> tbl
    | None ->
      let schema =
        Schema.make (List.map (fun c -> Schema.column c Value.TText) cols)
      in
      Hashtbl.replace db.Database.objects
        (String.lowercase_ascii name)
        (Database.Obj_table (Table.create ~name ~schema ~pk));
      Database.find_table db name
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let starts p =
           String.length line >= String.length p
           && String.sub line 0 (String.length p) = p
         in
         let after p =
           String.sub line (String.length p)
             (String.length line - String.length p)
         in
         if starts "TABLE " then begin
           let name, cols, pk = parse_table_header (after "TABLE ") in
           current := Some (table_for name cols pk)
         end
         else if starts "  INDEX " then begin
           match !current with
           | Some tbl ->
             String.split_on_char ',' (after "  INDEX ")
             |> List.iter (fun c ->
                    let c = String.trim c in
                    if c <> "" && not (Hashtbl.mem tbl.Table.indexes c) then
                      Table.add_index tbl c)
           | None -> load_error "dump: INDEX line outside a TABLE section"
         end
         else if starts "  ROW " then begin
           match !current with
           | Some tbl ->
             ignore (Table.insert tbl (Array.of_list (parse_row (after "  ROW "))))
           | None -> load_error "dump: ROW line outside a TABLE section"
         end
         else if starts "SEQUENCE " then begin
           match String.split_on_char ' ' (after "SEQUENCE ") with
           | [ name; "="; v ] -> (
             let v =
               match int_of_string_opt v with
               | Some v -> v
               | None -> load_error "dump: malformed SEQUENCE line %S" line
             in
             let k = String.lowercase_ascii name in
             match Hashtbl.find_opt db.Database.sequences k with
             | Some r -> r := v
             | None -> Hashtbl.replace db.Database.sequences k (ref v))
           | _ -> load_error "dump: malformed SEQUENCE line %S" line
         end
         else begin
           current := None
           (* VIEW / TRIGGER / blank lines: schema replay owns those *)
         end);
  Database.reset_view_memos db
