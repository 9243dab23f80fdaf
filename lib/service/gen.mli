(** Seeded service-workload model: what arrives, when, and for which
    key.

    Three independent dimensions, all driven by one {!Util.Rng} stream
    so a fixed seed replays byte-identically:

    - {b Arrivals} — Poisson base process (exponential inter-arrival
      at [rate] requests/second), optionally modulated by an on/off
      burst chain: episode lengths are exponential with means
      [on_s]/[off_s] and the instantaneous rate is [rate·mult] inside
      a burst. Inter-arrival draws integrate the piecewise-constant
      rate exactly, so the effective mean rate is
      [rate·(off_s + mult·on_s)/(off_s + on_s)] ({!expected_rate}).
      Arrival stamps are nanoseconds from time 0 and are fixed at
      generation — the open-loop drivers measure every request from
      this stamp, which is what makes coordinated omission impossible.
    - {b Keys} — Zipf(θ) ranks over [n_keys] via rejection-inversion
      sampling (Hörmann–Derflinger; O(1) per draw, no O(n) harmonic
      precompute, so 100M-key spaces cost nothing), scrambled through
      a bijection on [0, n_keys) so rank locality does not become key
      locality. θ = 0 degenerates to uniform exactly. A temporal
      [locality] knob replays a uniformly-drawn key from the last
      [recent_window] touched keys with the given probability — the
      temporally-local traces the working-set structures item needs.
    - {b Op mix} — weighted get/put/delete/range classes; range
      queries span [range_width] keys from their start key. *)

type op_class = Get | Put | Delete | Range

val class_name : op_class -> string
val class_index : op_class -> int
val n_classes : int

val class_names : string array
(** [class_names.(class_index c) = class_name c]. *)

type mix = { get : float; put : float; delete : float; range : float }
(** Nonnegative weights, normalized internally; at least one must be
    positive. *)

val default_mix : mix
(** 75% get / 20% put / 3% delete / 2% range — a read-heavy KV
    service. *)

val fold_range_into_get : mix -> mix
(** For stores without a range operation. *)

type burst = {
  on_s : float;  (** mean burst-episode length, seconds *)
  off_s : float;  (** mean quiet-episode length, seconds *)
  mult : float;  (** rate multiplier inside a burst, >= 1 *)
}

type t

val make :
  ?theta:float ->
  ?burst:burst option ->
  ?mix:mix ->
  ?locality:float ->
  ?recent_window:int ->
  ?range_width:int ->
  seed:int ->
  n_keys:int ->
  rate:float ->
  unit ->
  t
(** Defaults: [theta = 0.99], no bursts, {!default_mix},
    [locality = 0.0], [recent_window = 1024], [range_width = 16].
    [n_keys >= 1], [rate > 0]. *)

val expected_rate : t -> float
(** Long-run mean arrival rate, requests/second, bursts included. *)

type requests = {
  arrive_ns : int array;
      (** scheduled arrival, ns from time 0 — fixed at generation;
          latency is measured from here *)
  cls : int array;  (** a {!class_index} *)
  key : int array;  (** in [0, n_keys); for [Range], the interval start *)
  key2 : int array;  (** [Put]: the value; [Range]: the exclusive end *)
}
(** A request stream as columns: request [i] is the [i]th entry of
    each. Every column is an array of immediates, so the stream is
    four blocks however long it is. *)

val length : requests -> int

val op_class : requests -> int -> op_class
(** [op_class r i] is request [i]'s class. *)

val generate : t -> duration_s:float -> requests
(** All requests with [arrive_ns < duration_s · 1e9], in arrival
    order. A fresh internal stream each call: generating twice from
    the same [t] gives identical columns. *)

val generate_n : t -> n:int -> requests
(** The first [n] requests of the same stream. *)

(* ---- exposed for the statistical tests ---- *)

type zipf

val zipf : n:int -> theta:float -> zipf
(** [n >= 1], [theta >= 0]. *)

val zipf_sample : Util.Rng.t -> zipf -> int
(** A 0-based rank in [0, n); rank 0 is the hottest. *)

val scramble : n_keys:int -> int -> int
(** The rank-to-key bijection on [0, n_keys). *)
