(** Clocks, latency series and the JSON the ledger prints.

    End-to-end latencies use the monotonic nanosecond clock: the engine's
    own spans carry wall-clock microseconds, which would quantize a 15 us
    point read into 7 % steps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

(** A growable sample of durations in milliseconds. *)
type series = { mutable data : float array; mutable n : int }

let series () = { data = Array.make 256 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(** Quantile [q] with linear interpolation between closest ranks (the
    estimator of numpy's default and of Python's [statistics.quantiles]
    with [method="inclusive"]); [nan] on an empty series. *)
let quantile s q =
  if s.n = 0 then Float.nan
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort compare a;
    let pos = q *. float_of_int (s.n - 1) in
    let lo = int_of_float pos in
    let hi = min (s.n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median s = quantile s 0.5

(* --- JSON output -------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** A finite float with all its digits; JSON has no NaN or infinity, so a
    metric that could not be measured prints as [null]. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
