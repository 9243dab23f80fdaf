(* Work-stealing deque with the whole synchronization state packed into
   ONE atomic word — the par-ml variant of Chase-Lev (SNIPPETS.md calls
   it "a single atomic variable for the state of the deque"), replacing
   the classic two-atomic (top, bottom) formulation we used before (it
   lost both of M2's cells, EXPERIMENTS.md, and is deleted).

   Encoding:  word = (top lsl size_bits) lor size,   both non-negative.
   [top] is the steal index; [size] the element count; the owner's write
   index ("bottom") is always [top + size].

   Protocol (all accesses SC):

   - push (owner): read word; write the element at [top + size]; then
     FAA(+1) — the increment lands entirely in the size field and
     publishes the element. Concurrent steals change [top] and [size]
     by (+1, -1), so the write index [top + size] is unaffected: the
     owner's slot computation is always valid even when its read of the
     word is stale.
   - pop (owner): CAS loop. With size > 1, CAS (top, size) ->
     (top, size-1) and take index [top + size - 1]. With size = 1 the
     pop races thieves for the last element: CAS (top, 1) -> (top+1, 0)
     — bumping [top] even though nothing was stolen. That bump is the
     ABA armour (below).
   - steal (thief): read word; if size = 0 fail; read the element at
     [top]; CAS (top, size) -> (top+1, size-1). Single CAS, no second
     load, no fence: the one-word CAS subsumes the C11 seq_cst fence of
     the two-atomic protocol.

   Why reading the element BEFORE the CAS is safe (no ABA): [top] is
   strictly monotone — every transition that logically removes the
   element at index T (a steal, or a pop of the last element) moves top
   to T+1. The slot at index T is only ever (re)written by a push with
   [top + size = T], and once the word has been observed at (T, s >= 1)
   the only way size can return to a state where [top + size = T] is
   through (T, 0) — which arises exclusively by *incrementing* top to T.
   Top being monotone, that cannot happen after (T, s >= 1) was real, so
   a successful CAS against an observed (T, s) guarantees the slot value
   read for index T is the live element. (The two-atomic version needs
   the load-order discipline between [top] and [bottom] for the same
   guarantee; here it falls out of the single word.)

   Why pop uses CAS and not FAA(-1): a blind decrement on an empty deque
   would borrow out of the size field into the top bits, corrupting the
   steal index for every concurrent thief.

   Data path notes carried over from the previous implementation:
   elements live directly in an [Obj.t array] (no option boxing); [grow]
   retires buffers without mutating them, so a thief holding a stale
   buffer still reads the correct element for any CAS it can win; the
   owner clears slots it pops, thieves never write.

   The word itself is cache-line padded ([Pad.atomic]): each worker's
   deque word is the single most contended location in the pool, and
   adjacent deques sharing a line is exactly the false sharing par-ml
   flags as the dominant stability factor. *)

type buffer = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  data : Obj.t array;
}

let slot_empty : Obj.t = Obj.repr ()

let make_buffer log_size =
  { mask = (1 lsl log_size) - 1; data = Array.make (1 lsl log_size) slot_empty }

let buf_get b i = Array.unsafe_get b.data (i land b.mask)
let buf_put b i x = Array.unsafe_set b.data (i land b.mask) x

(* 2^21 - 1 = ~2M parked tasks per worker; top gets the remaining ~42
   bits, which at one steal per nanosecond lasts ~1.2 hours of
   continuous stealing per element — and top only advances per element
   removed, so in practice it is bounded by total tasks executed. *)
let size_bits = 21
let size_mask = (1 lsl size_bits) - 1

type 'a t = {
  tb : int Atomic.t;  (* packed (top, size); padded *)
  buf : buffer Atomic.t;  (* owner-written; thieves only read *)
}

let create () =
  Pad.copy_as_padded
    { tb = Pad.atomic 0; buf = Pad.atomic (make_buffer 8) }

let size t = Atomic.get t.tb land size_mask

(* Owner only, from [push]. The old buffer is retired, never reused or
   overwritten. Concurrent steals during the copy only shrink the live
   window from the front; copying a stale superset is harmless. *)
let grow t ~top ~sz =
  let old = Atomic.get t.buf in
  let cap2 = (old.mask + 1) * 2 in
  if cap2 > size_mask + 1 then failwith "Wsdeque: capacity limit exceeded";
  let nb = { mask = cap2 - 1; data = Array.make cap2 slot_empty } in
  for i = top to top + sz - 1 do
    buf_put nb i (buf_get old i)
  done;
  Atomic.set t.buf nb

let push t x =
  let w = Atomic.get t.tb in
  let top = w lsr size_bits and sz = w land size_mask in
  let buf = Atomic.get t.buf in
  let buf =
    if sz > buf.mask then begin
      grow t ~top ~sz;
      Atomic.get t.buf
    end
    else buf
  in
  buf_put buf (top + sz) (Obj.repr x);
  (* FAA in the size field: publishes the element (SC). *)
  ignore (Atomic.fetch_and_add t.tb 1)

let rec pop : 'a. 'a t -> 'a option =
 fun t ->
  let w = Atomic.get t.tb in
  let sz = w land size_mask in
  if sz = 0 then None
  else begin
    let top = w lsr size_bits in
    let buf = Atomic.get t.buf in
    let i = top + sz - 1 in
    let v = buf_get buf i in
    let w' =
      if sz = 1 then (top + 1) lsl size_bits (* last: bump top (ABA) *)
      else (top lsl size_bits) lor (sz - 1)
    in
    if Atomic.compare_and_set t.tb w w' then begin
      buf_put buf i slot_empty;
      Some (Obj.obj v)
    end
    else (* thieves moved top under us: recompute the index *)
      pop t
  end

let steal (type a) (t : a t) : a option =
  let w = Atomic.get t.tb in
  let sz = w land size_mask in
  if sz = 0 then None
  else begin
    let top = w lsr size_bits in
    (* Element read before the CAS; sound per the ABA argument above. *)
    let v = buf_get (Atomic.get t.buf) top in
    if
      Atomic.compare_and_set t.tb w
        (((top + 1) lsl size_bits) lor (sz - 1))
    then Some (Obj.obj v : a)
    else None
  end
