(** Lock-free work-stealing deque with all synchronization state packed
    into a single cache-line-padded atomic word — the par-ml variant of
    Chase-Lev (DESIGN.md §8.7, §8.9).

    The word encodes [(top lsl size_bits) lor size]; the owner's write
    index is always [top + size], an invariant steals preserve. [push]
    is one load + one array store + one fetch-and-add; [steal] is one
    load + one CAS (the single-word CAS subsumes the seq_cst fence of
    the classic two-atomic protocol); [pop] is a CAS loop that bumps
    [top] when taking the last element, which keeps [top] strictly
    monotone and rules out the ABA a pre-CAS element read would
    otherwise risk. Full protocol and ABA argument in the
    implementation.

    Elements live directly in a flat [Obj.t] buffer (no per-[push]
    boxing). The buffer grows on demand (owner-side only) up to
    [2^size_bits] elements; retired buffers are never mutated, so a
    thief racing a grow still reads a valid element iff its CAS wins.

    Single-owner: [push] and [pop] must only be called from one domain
    at a time; [steal] may be called from any domain. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Owner only. No allocation outside buffer growth. Raises [Failure]
    if the deque would exceed [2^21 - 1] parked elements. *)

val pop : 'a t -> 'a option
(** Owner only. A popped element's slot is cleared, so the deque does
    not retain it. *)

val steal : 'a t -> 'a option
(** Any domain. Returns [None] if the deque looked empty or the race
    was lost. A stolen element's slot is reclaimed when the owner next
    wraps over it (at most [capacity] stale references persist). *)

val size : 'a t -> int
(** Snapshot; racy, only a hint. *)
