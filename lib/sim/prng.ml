(* SplitMix64.  Small, fast, deterministic, and independent of the global
   [Random] state — every simulation carries its own stream so that a run
   is a pure function of its seed.

   The 64-bit state lives in two 32-bit limbs held in native ints, and
   every step is computed with plain int arithmetic: the original
   [Int64]-based implementation boxed the state on every write and every
   intermediate, which made the PRNG the single largest allocation site
   of the simulator (it runs inside [Cpu.jittered], i.e. on every
   simulated delay).  This version allocates nothing on any draw.

   OCaml's 63-bit native ints make the limb arithmetic exact:

   - 32x32-bit partial products of 16-bit limbs fit with room to spare;
   - a product or sum that overflows only wraps modulo 2^63, which
     preserves the low 32 bits we keep (2^32 divides 2^63);
   - the 53-bit mantissa extraction for [float] fits an immediate int.

   The draw sequence is bit-for-bit the reference SplitMix64 sequence;
   test/test_sim.ml checks it against a boxed Int64 re-implementation. *)

type t = {
  mutable hi : int; (* 64-bit state, 32-bit limbs *)
  mutable lo : int;
  mutable rh : int; (* the last draw's limbs, left here by [next] *)
  mutable rl : int;
}

let mask32 = 0xFFFF_FFFF

(* golden = 0x9E3779B97F4A7C15, the SplitMix64 increment *)
let golden_hi = 0x9E37_79B9
let golden_lo = 0x7F4A_7C15

(* the two finalizer multipliers *)
let m1_hi = 0xBF58_476D
let m1_lo = 0x1CE4_E5B9
let m2_hi = 0x94D0_49BB
let m2_lo = 0x1331_11EB

let create seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32) land mask32;
    lo = Int64.to_int (Int64.logand seed 0xFFFF_FFFFL);
    rh = 0;
    rl = 0;
  }

(* High 32 bits of the full 64-bit product of two 32-bit values; the low
   32 bits come for free from wraparound (see [mul_lo]). *)
let[@inline] mul_hi32 a b =
  let x0 = a land 0xFFFF and x1 = a lsr 16 in
  let y0 = b land 0xFFFF and y1 = b lsr 16 in
  let mid = (x0 * y1) + (x1 * y0) in
  let lo = (x0 * y0) + ((mid land 0xFFFF) lsl 16) in
  (x1 * y1) + (mid lsr 16) + (lo lsr 32)

(* One SplitMix64 step: advance the state by golden, then run the
   xorshift-multiply finalizer.  Leaves the drawn value in [t.rh] and
   [t.rl] rather than returning a pair, which would allocate. *)
let next t =
  (* state += golden *)
  let l = t.lo + golden_lo in
  let zl = l land mask32 in
  let zh = (t.hi + golden_hi + (l lsr 32)) land mask32 in
  t.hi <- zh;
  t.lo <- zl;
  (* z ^= z >>> 30; z *= m1 *)
  let xl = zl lxor (((zh lsl 2) lor (zl lsr 30)) land mask32) in
  let xh = zh lxor (zh lsr 30) in
  let zl = (xl * m1_lo) land mask32 in
  let zh = (mul_hi32 xl m1_lo + (xl * m1_hi) + (xh * m1_lo)) land mask32 in
  (* z ^= z >>> 27; z *= m2 *)
  let xl = zl lxor (((zh lsl 5) lor (zl lsr 27)) land mask32) in
  let xh = zh lxor (zh lsr 27) in
  let zl = (xl * m2_lo) land mask32 in
  let zh = (mul_hi32 xl m2_lo + (xl * m2_hi) + (xh * m2_lo)) land mask32 in
  (* z ^= z >>> 31 *)
  t.rl <- zl lxor (((zh lsl 1) lor (zl lsr 31)) land mask32);
  t.rh <- zh lxor (zh lsr 31)

let next_int64 t =
  next t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t = create (next_int64 t)

(* Uniform float in [0, 1): the top 53 bits of the draw, scaled. *)
let float t =
  next t;
  float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to 62 bits so the value fits in a non-negative OCaml int. *)
  next t;
  let r = ((t.rh land 0x3FFF_FFFF) lsl 32) lor t.rl in
  r mod bound

let bool t =
  next t;
  t.rl land 1 = 1

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
