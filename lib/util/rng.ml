(* One Xoshiro256++ stream. Its four state words live unboxed in a
   32-byte buffer (byte offsets 0, 8, 16, 24), read and written with the
   native-endian int64 bytes primitives: every intermediate stays
   unboxed, so a draw allocates nothing once [next64] is inlined. *)
type t = Bytes.t

(* SplitMix64: used only to expand a seed into Xoshiro state, as
   recommended by Blackman & Vigna. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix_next st)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

(* [next64]'s state transition without its output, so no int64 leaves
   the loop to be boxed. *)
let skip t n =
  let open Int64 in
  for _ = 1 to n do
    let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
    let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
    let tmp = shift_left s1 17 in
    let s2 = logxor s2 s0 in
    let s3 = logxor s3 s1 in
    Bytes.set_int64_ne t 0 (logxor s0 s3);
    Bytes.set_int64_ne t 8 (logxor s1 s2);
    Bytes.set_int64_ne t 16 (logxor s2 tmp);
    Bytes.set_int64_ne t 24 (rotl s3 45)
  done

let split t =
  let seed = Int64.to_int (next64 t) in
  create ~seed

let stream ~seed ~index =
  (* Mix the index into the seed through one splitmix step so streams for
     nearby indices are uncorrelated. *)
  let st = ref (Int64.of_int seed) in
  let base = splitmix_next st in
  create ~seed:(Int64.to_int base + (index * 0x5DEECE66D) + index)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays nonnegative in OCaml's 63-bit int;
     modulo bias is negligible for the small bounds simulations use. *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let bits53 t = Int64.to_int (Int64.shift_right_logical (next64 t) 11)

let float t bound = bound *. (float_of_int (bits53 t) /. 0x1p53)

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
