(* SplitMix64.  Small, fast, deterministic, and independent of the global
   [Random] state — every simulation carries its own stream so that a run
   is a pure function of its seed.

   The 64-bit state lives in an 8-byte [Bytes.t], read and written with
   the compiler's unboxed 64-bit load and store primitives.  A step is
   then plain [Int64] arithmetic that the native compiler keeps in
   registers: nothing is boxed as long as the drawn value is consumed in
   the same function, which [next]'s inlining into [float], [int] and
   [bool] ensures.  A mutable [int64] record field would instead box the
   state on every write: the PRNG runs on every simulated delay, and an
   [Int64] version that did so was once the simulator's largest
   allocation site.

   [float], [uniform] and [jitter] are deliberately not forced inline
   into their callers: inlining the whole chain into [Cpu.jittered] saves
   the boxed float each draw returns, but measured slower on the model
   checker's many short-lived machines (EXPERIMENTS.md, "Eighth
   pass").

   The draw sequence is bit-for-bit the reference SplitMix64 sequence;
   test/test_sim.ml checks [next_int64], [float], [int] and [bool]
   against a boxed Int64 re-implementation. *)

type t = Bytes.t (* the 64-bit state, at offset 0 *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

(* One SplitMix64 step: advance the state by the golden increment, then
   run the xorshift-multiply finalizer. *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 s;
  let z = Int64.logxor s (Int64.shift_right_logical s 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t
let split t = create (next t)

(* Uniform float in [0, 1): the top 53 bits of the draw, scaled. *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1.0 /. 9007199254740992.0)

(* The low 62 bits of the draw: a non-negative OCaml int. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (Int64.to_int (next t) land 0x3FFF_FFFF_FFFF_FFFF) mod bound

let bool t = Int64.to_int (next t) land 1 = 1
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(* Exponential with the given mean; used for Poisson inter-arrival times. *)
let exponential t mean =
  let u = float t in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

(* Multiplicative jitter in [1 - spread, 1 + spread]; models the cycle-level
   noise (cache misses, DRAM refresh, bus arbitration) that gives the
   paper's measurements their standard deviations. *)
let jitter t spread = 1.0 +. uniform t (-.spread) spread
