type t = {
  bop_work : float;
  bop_span : float;
  setup_work : float;
  setup_span : float;
  p_share : float;
}

let identity =
  {
    bop_work = 1.0;
    bop_span = 1.0;
    setup_work = 1.0;
    setup_span = 1.0;
    p_share = 1.0;
  }

let is_identity c = c = identity

(* The identity factor must return its argument unchanged (not merely
   round-trip through float), so a run under [identity] is
   byte-identical to a run on a build without the costs plumbing — the
   golden test in test/test_service.ml holds this against recorded
   pre-plumbing digests. *)
let scale f x =
  if f = 1.0 then x
  else max 0 (int_of_float (Float.round (f *. float_of_int x)))

let check c =
  let pos name f =
    if Float.is_nan f || f <= 0.0 then
      invalid_arg (Printf.sprintf "Costs: %s factor must be > 0, got %g" name f)
  in
  pos "bop_work" c.bop_work;
  pos "bop_span" c.bop_span;
  pos "setup_work" c.setup_work;
  pos "setup_span" c.setup_span;
  pos "p_share" c.p_share
