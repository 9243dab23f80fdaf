type t = {
  mutable buf : int array;  (* power-of-two capacity *)
  mutable top : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { buf = Array.make 8 0; top = 0; len = 0 }

let is_empty t = t.len = 0
let length t = t.len

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (cap * 2) 0 in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.top + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.top <- 0

let push_bottom t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.top + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop_bottom t =
  if t.len = 0 then -1
  else begin
    t.len <- t.len - 1;
    t.buf.((t.top + t.len) land (Array.length t.buf - 1))
  end

let steal_top t =
  if t.len = 0 then -1
  else begin
    let x = t.buf.(t.top) in
    t.top <- (t.top + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    x
  end
