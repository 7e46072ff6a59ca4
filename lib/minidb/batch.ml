(** Typed column batches: the columnar snapshots of {!Table} storage.

    A batch is an immutable columnar snapshot of a stored table: one typed
    vector per column (int/real/string/bool arrays with an optional
    byte-per-row null mask) or a boxed [Value.t] fallback vector when a
    column holds mixed types. Rows appear in ascending-rowid order, so every
    consumer — columnar or row-at-a-time — sees the same deterministic scan
    order. Each table keeps its own snapshot, valid until its next write
    ({!Table.batch}), so a snapshot lives exactly as long as its table. *)

type col =
  | C_int of int array * Bytes.t option
  | C_real of float array * Bytes.t option
  | C_text of string array * Bytes.t option
  | C_bool of bool array * Bytes.t option
  | C_value of Value.t array
      (** mixed-type column (or empty batch); nulls are inline *)

(* null masks are byte-per-row: '\001' marks NULL at that row *)
let null_at mask i = Bytes.unsafe_get mask i = '\001'

type t = {
  cols : col array;
  nrows : int;
  mutable rows_memo : Value.t array list option;
      (** the same snapshot as a row list (ascending rowid), built on first
          demand — serves the row-path executor from the same snapshot *)
}

let nrows b = b.nrows
let width b = Array.length b.cols

(** Value at (column [j], row [i]); boxes typed cells on demand. *)
let get b j i =
  match b.cols.(j) with
  | C_value a -> a.(i)
  | C_int (a, m) ->
    if (match m with Some m -> null_at m i | None -> false) then Value.Null
    else Value.Int a.(i)
  | C_real (a, m) ->
    if (match m with Some m -> null_at m i | None -> false) then Value.Null
    else Value.Real a.(i)
  | C_text (a, m) ->
    if (match m with Some m -> null_at m i | None -> false) then Value.Null
    else Value.Text a.(i)
  | C_bool (a, m) ->
    if (match m with Some m -> null_at m i | None -> false) then Value.Null
    else Value.Bool a.(i)

let is_null b j i =
  match b.cols.(j) with
  | C_value a -> Value.is_null a.(i)
  | C_int (_, m) | C_real (_, m) | C_text (_, m) | C_bool (_, m) -> (
    match m with Some m -> null_at m i | None -> false)

(** Row [i] as a fresh boxed array. *)
let row b i =
  let w = Array.length b.cols in
  Array.init w (fun j -> get b j i)

(* Compress one column of the row snapshot into its tightest representation:
   a typed vector when every non-null cell shares one runtime type (null
   slots hold a dummy and are recorded in the mask), the boxed fallback
   otherwise. *)
let compress_col (rows : Value.t array array) j =
  let n = Array.length rows in
  let ty = ref `Empty in
  (try
     for i = 0 to n - 1 do
       match rows.(i).(j), !ty with
       | Value.Null, _ -> ()
       | Value.Int _, (`Empty | `Int) -> ty := `Int
       | Value.Real _, (`Empty | `Real) -> ty := `Real
       | Value.Text _, (`Empty | `Text) -> ty := `Text
       | Value.Bool _, (`Empty | `Bool) -> ty := `Bool
       | _ ->
         ty := `Mixed;
         raise Exit
     done
   with Exit -> ());
  let mask () =
    let any = ref false in
    let m = Bytes.make n '\000' in
    for i = 0 to n - 1 do
      if Value.is_null rows.(i).(j) then begin
        Bytes.unsafe_set m i '\001';
        any := true
      end
    done;
    if !any then Some m else None
  in
  match !ty with
  | `Mixed | `Empty -> C_value (Array.init n (fun i -> rows.(i).(j)))
  | `Int ->
    let a =
      Array.init n (fun i ->
          match rows.(i).(j) with Value.Int k -> k | _ -> 0)
    in
    C_int (a, mask ())
  | `Real ->
    let a =
      Array.init n (fun i ->
          match rows.(i).(j) with Value.Real r -> r | _ -> 0.)
    in
    C_real (a, mask ())
  | `Text ->
    let a =
      Array.init n (fun i ->
          match rows.(i).(j) with Value.Text s -> s | _ -> "")
    in
    C_text (a, mask ())
  | `Bool ->
    let a =
      Array.init n (fun i ->
          match rows.(i).(j) with Value.Bool v -> v | _ -> false)
    in
    C_bool (a, mask ())

let of_row_array (rows : Value.t array array) ~width =
  {
    cols = Array.init width (compress_col rows);
    nrows = Array.length rows;
    rows_memo = None;
  }

(** The snapshot as a row list in ascending-rowid order (memoized). The
    arrays are fresh boxes, never aliases of table storage. *)
let rows_of b =
  match b.rows_memo with
  | Some l -> l
  | None ->
    let l = List.init b.nrows (fun i -> row b i) in
    b.rows_memo <- Some l;
    l

(** Rows selected by [sel] (in selection order); [None] means all rows. *)
let rows_for_sel b = function
  | None -> rows_of b
  | Some sel -> Array.to_list (Array.map (fun i -> row b i) sel)

let sel_length b = function None -> b.nrows | Some s -> Array.length s

(** Fold [f] over the selected row indices in selection order. *)
let fold_sel b sel f acc =
  match sel with
  | None ->
    let acc = ref acc in
    for i = 0 to b.nrows - 1 do
      acc := f !acc i
    done;
    !acc
  | Some sel -> Array.fold_left f acc sel
