(** Mutable stored tables: rows keyed by an internal rowid, with optional
    unique primary key and secondary hash indexes. *)

module Rowids = Set.Make (Int)

type bucket = {
  mutable ids : Rowids.t;
      (** ascending rowids: a probe reads its first rows straight off the
          ordered set, with no sort and no copy of the bucket *)
  mutable bucket_rows : (Value.t array list * int) option;
      (** memoized rows (ascending rowid) with the table epoch they were read
          at; any write bumps the epoch, so staleness is one int compare *)
}

type index = {
  idx_column : int;  (** column position *)
  entries : (Value.t, bucket) Hashtbl.t;  (** value -> rowids *)
}

type t = {
  name : string;
  schema : Schema.t;
  pk : int option;  (** position of the PRIMARY KEY column, if any *)
  rows : (int, Value.t array) Hashtbl.t;
  mutable next_rowid : int;
  indexes : (string, index) Hashtbl.t;  (** lowercase column name -> index *)
  mutable epoch : int;
      (** monotonic write counter; cached view results carry the epochs of
          their base tables and are valid only while all of them still match *)
  mutable batch : (Batch.t * int) option;
      (** the columnar snapshot ({!batch}) with the epoch it was taken at;
          like a bucket's [bucket_rows], staleness is one int compare *)
}

exception Constraint_violation of string

let violation fmt = Fmt.kstr (fun s -> raise (Constraint_violation s)) fmt

let create ~name ~schema ~pk =
  let t =
    {
      name;
      schema;
      pk;
      rows = Hashtbl.create 64;
      next_rowid = 0;
      indexes = Hashtbl.create 4;
      epoch = 0;
      batch = None;
    }
  in
  (match pk with
  | Some i ->
    let col = List.nth schema.Schema.columns i in
    Hashtbl.replace t.indexes
      (String.lowercase_ascii col.Schema.name)
      { idx_column = i; entries = Hashtbl.create 64 }
  | None -> ());
  t

let cardinality t = Hashtbl.length t.rows

let index_add idx v rowid =
  match Hashtbl.find_opt idx.entries v with
  | Some b -> b.ids <- Rowids.add rowid b.ids
  | None ->
    Hashtbl.replace idx.entries v
      { ids = Rowids.singleton rowid; bucket_rows = None }

let index_remove idx v rowid =
  match Hashtbl.find_opt idx.entries v with
  | None -> ()
  | Some b ->
    b.ids <- Rowids.remove rowid b.ids;
    if Rowids.is_empty b.ids then Hashtbl.remove idx.entries v

let add_index t column =
  let pos = Schema.index t.schema column in
  let key = String.lowercase_ascii column in
  if not (Hashtbl.mem t.indexes key) then begin
    let idx = { idx_column = pos; entries = Hashtbl.create 64 } in
    Hashtbl.iter (fun rowid row -> index_add idx row.(pos) rowid) t.rows;
    Hashtbl.replace t.indexes key idx
  end

(** Remove a secondary index again (transaction rollback of an index
    creation; the primary-key index is never removed this way because index
    creations are only logged when the index did not exist). *)
let remove_index t column = Hashtbl.remove t.indexes (String.lowercase_ascii column)

let indexed_column t column =
  Hashtbl.find_opt t.indexes (String.lowercase_ascii column)

(** Rowids whose indexed column equals [v], in ascending rowid order, the
    order every index plan reads them in. *)
let index_lookup idx v =
  match Hashtbl.find_opt idx.entries v with
  | None -> []
  | Some b -> Rowids.elements b.ids

(** Rows whose indexed column equals [v], in ascending rowid order. The row
    list is memoized on the bucket together with the table epoch it was read
    at, so steady-state probe joins pay one hash lookup and one int compare
    per probe; any write to the table bumps the epoch and the next probe of
    an affected bucket rebuilds its list lazily. *)
let index_probe t idx v =
  match Hashtbl.find_opt idx.entries v with
  | None -> []
  | Some b -> (
    match b.bucket_rows with
    | Some (rows, e) when e = t.epoch -> rows
    | _ ->
      let rows =
        List.filter_map (Hashtbl.find_opt t.rows) (Rowids.elements b.ids)
      in
      b.bucket_rows <- Some (rows, t.epoch);
      rows)

(** The rows of {!index_probe}, in the same order, read one at a time: a
    first-row consumer that stops after k rows reads k rows of the bucket
    (or of its memoized list when that is current), never the whole of it,
    in O(log n + k). *)
let index_rows t idx v =
  match Hashtbl.find_opt idx.entries v with
  | None -> Seq.empty
  | Some b -> (
    match b.bucket_rows with
    | Some (rows, e) when e = t.epoch -> List.to_seq rows
    | _ -> Seq.filter_map (Hashtbl.find_opt t.rows) (Rowids.to_seq b.ids))

(** The table's columnar snapshot, rows in ascending rowid order. It is kept
    on the table until a write bumps the epoch, so a scan of an unchanged
    table is one int compare, and the snapshot dies with its table. *)
let batch t =
  match t.batch with
  | Some (b, e) when e = t.epoch -> b
  | _ ->
    let pairs = Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.rows [] in
    let pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
    let rows = Array.of_list (List.map snd pairs) in
    let b = Batch.of_row_array rows ~width:(Schema.arity t.schema) in
    t.batch <- Some (b, t.epoch);
    b

let pk_conflict t row =
  match t.pk with
  | None -> false
  | Some i -> (
    match Value.is_null row.(i) with
    | true -> false
    | false -> (
      let col = List.nth t.schema.Schema.columns i in
      match indexed_column t col.Schema.name with
      | Some idx -> index_lookup idx row.(i) <> []
      | None -> false))

(** Insert a row; returns its rowid. Raises {!Constraint_violation} on a
    primary-key conflict. *)
let insert t row =
  if Array.length row <> Schema.arity t.schema then
    violation "table %s expects %d values, got %d" t.name
      (Schema.arity t.schema) (Array.length row);
  if pk_conflict t row then
    violation "duplicate primary key %s in table %s"
      (Value.to_string row.(Option.get t.pk))
      t.name;
  let rowid = t.next_rowid in
  t.next_rowid <- rowid + 1;
  Hashtbl.replace t.rows rowid row;
  Hashtbl.iter (fun _ idx -> index_add idx row.(idx.idx_column) rowid) t.indexes;
  t.epoch <- t.epoch + 1;
  rowid

let delete t rowid =
  match Hashtbl.find_opt t.rows rowid with
  | None -> None
  | Some row ->
    Hashtbl.remove t.rows rowid;
    Hashtbl.iter
      (fun _ idx -> index_remove idx row.(idx.idx_column) rowid)
      t.indexes;
    t.epoch <- t.epoch + 1;
    Some row

let update t rowid new_row =
  match Hashtbl.find_opt t.rows rowid with
  | None -> None
  | Some old_row ->
    (match t.pk with
    | Some i when not (Value.equal old_row.(i) new_row.(i)) ->
      if pk_conflict t new_row then
        violation "duplicate primary key %s in table %s"
          (Value.to_string new_row.(i))
          t.name
    | _ -> ());
    Hashtbl.replace t.rows rowid new_row;
    Hashtbl.iter
      (fun _ idx ->
        if not (Value.equal old_row.(idx.idx_column) new_row.(idx.idx_column))
        then begin
          index_remove idx old_row.(idx.idx_column) rowid;
          index_add idx new_row.(idx.idx_column) rowid
        end)
      t.indexes;
    t.epoch <- t.epoch + 1;
    Some old_row

(** Re-insert a row under a known rowid (transaction rollback only). *)
let restore t rowid row =
  Hashtbl.replace t.rows rowid row;
  if rowid >= t.next_rowid then t.next_rowid <- rowid + 1;
  Hashtbl.iter (fun _ idx -> index_add idx row.(idx.idx_column) rowid) t.indexes;
  t.epoch <- t.epoch + 1

let iter t f = Hashtbl.iter f t.rows

let to_rows t = Hashtbl.fold (fun rowid row acc -> (rowid, row) :: acc) t.rows []

let find t rowid = Hashtbl.find_opt t.rows rowid

let clear t =
  Hashtbl.reset t.rows;
  Hashtbl.iter (fun _ idx -> Hashtbl.reset idx.entries) t.indexes;
  t.epoch <- t.epoch + 1
