type op_class = Get | Put | Delete | Range

let class_name = function
  | Get -> "get"
  | Put -> "put"
  | Delete -> "delete"
  | Range -> "range"

let class_index = function Get -> 0 | Put -> 1 | Delete -> 2 | Range -> 3
let n_classes = 4
let classes = [| Get; Put; Delete; Range |]
let class_names = Array.map class_name classes

type mix = { get : float; put : float; delete : float; range : float }

let default_mix = { get = 0.75; put = 0.20; delete = 0.03; range = 0.02 }

let fold_range_into_get m = { m with get = m.get +. m.range; range = 0.0 }

type burst = { on_s : float; off_s : float; mult : float }

(* ---- Zipf by rejection inversion (Hörmann & Derflinger 1996) ----

   Samples rank k in [1, n] with P(k) ∝ k^(-θ) by inverting the
   integral H of the hat function h(x) = x^(-θ) and rejecting against
   the true mass — O(1) expected draws, no per-key table, so the key
   space can be 100M without a multi-second harmonic precompute. The
   θ = 1 singularity of H(x) = (x^(1-θ) - 1)/(1-θ) switches to ln x. *)

type zipf = {
  z_n : int;
  z_theta : float;
  z_hx1 : float;  (* H(1.5) - 1: top of the inversion interval *)
  z_hn : float;  (* H(n + 0.5): bottom of the inversion interval *)
  z_s : float;  (* acceptance shortcut threshold *)
}

let near_one theta = Float.abs (theta -. 1.0) < 1e-9

(* A float returned from a call is boxed, so the hat functions and the
   draws below are [@inline]: their floats stay unboxed in the caller.
   [uniform rng] is [Util.Rng.float rng 1.0] to the bit, built here from
   the 53-bit int draw, which crosses the module boundary unboxed. *)
let[@inline] uniform rng = float_of_int (Util.Rng.bits53 rng) /. 0x1p53

let[@inline] h_integral ~theta x =
  if near_one theta then log x
  else begin
    let p = 1.0 -. theta in
    (exp (p *. log x) -. 1.0) /. p
  end

let[@inline] h_integral_inverse ~theta x =
  if near_one theta then exp x
  else begin
    let p = 1.0 -. theta in
    let t = Float.max (-1.0) (x *. p) in
    exp (log1p t /. p)
  end

let[@inline] h ~theta x = exp (-.theta *. log x)

let zipf ~n ~theta =
  if n < 1 then invalid_arg "Gen.zipf: n >= 1";
  if theta < 0.0 then invalid_arg "Gen.zipf: theta >= 0";
  {
    z_n = n;
    z_theta = theta;
    z_hx1 = h_integral ~theta 1.5 -. 1.0;
    z_hn = h_integral ~theta (float_of_int n +. 0.5);
    z_s = 2.0 -. h_integral_inverse ~theta (h_integral ~theta 2.5 -. h ~theta 2.0);
  }

let zipf_sample rng z =
  if z.z_n = 1 then 0
  else begin
    let theta = z.z_theta in
    (* A loop, not a local recursive function: that would be a closure
       allocated on every call. *)
    let k = ref 0 and accepted = ref false in
    while not !accepted do
      let u = z.z_hn +. (uniform rng *. (z.z_hx1 -. z.z_hn)) in
      let x = h_integral_inverse ~theta u in
      let c = int_of_float (x +. 0.5) in
      let c = if c < 1 then 1 else if c > z.z_n then z.z_n else c in
      k := c;
      accepted :=
        float_of_int c -. x <= z.z_s
        || u >= h_integral ~theta (float_of_int c +. 0.5) -. h ~theta (float_of_int c)
    done;
    !k - 1
  end

(* Rank-to-key bijection: multiply by an odd constant coprime to
   [n_keys] (plus an offset), so hot ranks land on scattered keys
   instead of a contiguous prefix. Coprimality makes it a permutation
   of [0, n_keys) — every rank is a distinct key. *)
let scramble_candidates =
  [| 2_654_435_761; 2_246_822_519; 3_266_489_917; 668_265_263; 374_761_393 |]

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let scramble_mult n_keys =
  let rec pick i =
    if i >= Array.length scramble_candidates then 1
    else if gcd scramble_candidates.(i) n_keys = 1 then scramble_candidates.(i)
    else pick (i + 1)
  in
  pick 0

let scramble ~n_keys rank =
  if n_keys <= 1 then 0
  else ((rank * scramble_mult n_keys) + 0x5DEECE) mod n_keys

(* ---- generator ---- *)

type t = {
  seed : int;
  n_keys : int;
  rate : float;
  theta : float;
  burst : burst option;
  mix : mix;
  locality : float;
  recent_window : int;
  range_width : int;
  z : zipf;
  mult : int;  (* scramble multiplier, precomputed *)
  cum : float array;  (* cumulative class weights, normalized *)
}

let make ?(theta = 0.99) ?(burst = None) ?(mix = default_mix)
    ?(locality = 0.0) ?(recent_window = 1024) ?(range_width = 16) ~seed
    ~n_keys ~rate () =
  if n_keys < 1 then invalid_arg "Gen.make: n_keys >= 1";
  if rate <= 0.0 then invalid_arg "Gen.make: rate > 0";
  if locality < 0.0 || locality > 1.0 then
    invalid_arg "Gen.make: locality in [0,1]";
  if recent_window < 1 then invalid_arg "Gen.make: recent_window >= 1";
  (match burst with
  | Some b ->
      if b.on_s <= 0.0 || b.off_s <= 0.0 || b.mult < 1.0 then
        invalid_arg "Gen.make: burst needs on_s > 0, off_s > 0, mult >= 1"
  | None -> ());
  let w = [| mix.get; mix.put; mix.delete; mix.range |] in
  Array.iter
    (fun x -> if x < 0.0 then invalid_arg "Gen.make: negative mix weight")
    w;
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Gen.make: mix weights sum to 0";
  let cum = Array.make n_classes 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cum.(i) <- !acc)
    w;
  cum.(n_classes - 1) <- 1.0;
  {
    seed;
    n_keys;
    rate;
    theta;
    burst;
    mix;
    locality;
    recent_window;
    range_width;
    z = zipf ~n:n_keys ~theta;
    mult = scramble_mult n_keys;
    cum;
  }

let expected_rate t =
  match t.burst with
  | None -> t.rate
  | Some b -> t.rate *. (b.off_s +. (b.mult *. b.on_s)) /. (b.off_s +. b.on_s)

type requests = {
  arrive_ns : int array;
  cls : int array;
  key : int array;
  key2 : int array;
}

let length r = Array.length r.arrive_ns
let op_class r i = classes.(r.cls.(i))

let columns n =
  {
    arrive_ns = Array.make n 0;
    cls = Array.make n 0;
    key = Array.make n 0;
    key2 = Array.make n 0;
  }

(* Columns of [n] requests holding the first [min n (length r)] of [r].
   The copy is a loop over [int array]s: [Array.blit] into an array in
   the major heap writes through [caml_modify]. *)
let resize r n =
  let r' = columns n in
  for i = 0 to min n (length r) - 1 do
    r'.arrive_ns.(i) <- r.arrive_ns.(i);
    r'.cls.(i) <- r.cls.(i);
    r'.key.(i) <- r.key.(i);
    r'.key2.(i) <- r.key2.(i)
  done;
  r'

(* One Exp(1) draw; [uniform] is in [0, 1), so the argument of [log]
   is in (0, 1] and the result is finite and nonnegative. *)
let[@inline] exp1 rng = -.log (1.0 -. uniform rng)

(* The stream's two instants. A record of floats only stores them
   unboxed; a float field of a mixed record is boxed on every write. *)
type clock = { mutable t_ns : float; mutable phase_end_ns : float }

type stream = {
  g : t;
  rng : Util.Rng.t;
  c : clock;
  mutable on : bool;  (* inside a burst episode *)
  ring : int array;  (* recently touched keys *)
  mutable ring_len : int;
  mutable ring_pos : int;
}

let stream_of g =
  let rng = Util.Rng.create ~seed:g.seed in
  let phase_end_ns =
    match g.burst with
    | None -> Float.max_float
    | Some b -> exp1 rng *. b.off_s *. 1e9 (* start quiet *)
  in
  {
    g;
    rng;
    c = { t_ns = 0.0; phase_end_ns };
    on = false;
    ring = Array.make g.recent_window 0;
    ring_len = 0;
    ring_pos = 0;
  }

(* Advance to the next arrival: spend an Exp(1) amount of "unit-rate
   work" against the piecewise-constant rate, switching burst phases
   exactly at their boundaries. *)
let next_arrival_ns s =
  let g = s.g and c = s.c in
  let w = ref (exp1 s.rng) in
  (match g.burst with
  | None -> c.t_ns <- c.t_ns +. (!w /. (g.rate /. 1e9))
  | Some b ->
      let finished = ref false in
      while not !finished do
        let rate_ns = g.rate *. (if s.on then b.mult else 1.0) /. 1e9 in
        let capacity = (c.phase_end_ns -. c.t_ns) *. rate_ns in
        if !w <= capacity then begin
          c.t_ns <- c.t_ns +. (!w /. rate_ns);
          finished := true
        end
        else begin
          w := !w -. capacity;
          c.t_ns <- c.phase_end_ns;
          s.on <- not s.on;
          let mean_s = if s.on then b.on_s else b.off_s in
          c.phase_end_ns <- c.t_ns +. (exp1 s.rng *. mean_s *. 1e9)
        end
      done);
  int_of_float c.t_ns

let touch s key =
  s.ring.(s.ring_pos) <- key;
  s.ring_pos <- (s.ring_pos + 1) mod Array.length s.ring;
  if s.ring_len < Array.length s.ring then s.ring_len <- s.ring_len + 1

let draw_key s =
  let g = s.g in
  let key =
    if
      g.locality > 0.0 && s.ring_len > 0
      && uniform s.rng < g.locality
    then s.ring.(Util.Rng.int s.rng s.ring_len)
    else begin
      let rank = zipf_sample s.rng g.z in
      if g.n_keys <= 1 then 0 else ((rank * g.mult) + 0x5DEECE) mod g.n_keys
    end
  in
  touch s key;
  key

let draw_class s =
  let r = uniform s.rng in
  if r < s.g.cum.(0) then Get
  else if r < s.g.cum.(1) then Put
  else if r < s.g.cum.(2) then Delete
  else Range

(* Request [i]'s draws after its arrival, in the stream's order: class,
   key, then key2. *)
let draw_rest s r i =
  let cls = draw_class s in
  let key = draw_key s in
  r.cls.(i) <- class_index cls;
  r.key.(i) <- key;
  r.key2.(i) <-
    (match cls with
    | Range -> key + s.g.range_width
    | Put -> Util.Rng.int s.rng 1_000_000
    | Get | Delete -> 0)

let generate t ~duration_s =
  if duration_s <= 0.0 then invalid_arg "Gen.generate: duration_s > 0";
  let horizon = duration_s *. 1e9 in
  let s = stream_of t in
  (* The columns double when full; one last copy trims them. *)
  let r = ref (columns 1024) and n = ref 0 in
  let stop = ref false in
  while not !stop do
    let at = next_arrival_ns s in
    if float_of_int at < horizon then begin
      if !n = length !r then r := resize !r (2 * !n);
      !r.arrive_ns.(!n) <- at;
      draw_rest s !r !n;
      incr n
    end
    else stop := true
  done;
  resize !r !n

let generate_n t ~n =
  if n < 0 then invalid_arg "Gen.generate_n: n >= 0";
  let s = stream_of t in
  let r = columns n in
  for i = 0 to n - 1 do
    r.arrive_ns.(i) <- next_arrival_ns s;
    draw_rest s r i
  done;
  r
