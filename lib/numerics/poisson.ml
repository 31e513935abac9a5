type t = {
  left : int;
  right : int;
  weights : float array;
  defect : float;
}

let c_windows = Telemetry.counter "poisson.windows"

(* Window width drives sweep cost (one vector-matrix product per term),
   so the distribution of widths is the first thing to look at when a
   model is slow. *)
let h_window = Telemetry.histogram ~lo:1. ~hi:1e6 "poisson.window_size"

(* The weights decrease monotonically away from the mode, so recurring
   outwards from the mode never overflows once the mode weight is
   represented exactly in log space.  We stop extending a side when its
   next weight would add less than [accuracy / 2] relative mass. *)
let weights ?(accuracy = 1e-12) lambda =
  if lambda < 0. then invalid_arg "Poisson.weights: negative rate";
  Telemetry.incr c_windows;
  if lambda = 0. then begin
    Telemetry.observe_int h_window 1;
    { left = 0; right = 0; weights = [| 1. |]; defect = 0. }
  end
  else begin
    Telemetry.with_span "poisson.weights" @@ fun () ->
    let mode = int_of_float (Float.floor lambda) in
    let log_w_mode =
      (float_of_int mode *. log lambda)
      -. lambda
      -. Special.log_factorial mode
    in
    let w_mode = exp log_w_mode in
    (* Walk right from the mode. *)
    let right_weights = ref [] in
    let n = ref mode and w = ref w_mode and tail = ref 0. in
    let cutoff = accuracy /. 4. in
    let right_tail = ref 0. in
    let continue = ref true in
    while !continue do
      let n' = !n + 1 in
      let w' = !w *. lambda /. float_of_int n' in
      (* A geometric-series bound on the remaining right tail: once the
         ratio is < 1, remaining mass <= w' / (1 - ratio). *)
      let ratio = lambda /. float_of_int (n' + 1) in
      let bound = if ratio < 1. then w' /. (1. -. ratio) else infinity in
      if bound <= cutoff then begin
        right_tail := bound;
        continue := false
      end
      else begin
        right_weights := w' :: !right_weights;
        n := n';
        w := w';
        tail := !tail +. w'
      end
    done;
    let right = !n in
    (* Walk left from the mode. *)
    let left_weights = ref [] in
    let n = ref mode and w = ref w_mode in
    let left_tail = ref 0. in
    let continue = ref true in
    while !continue && !n > 0 do
      let w' = !w *. float_of_int !n /. lambda in
      (* Left weights decay at least geometrically with ratio n/lambda
         once n < lambda. *)
      let ratio = float_of_int (!n - 1) /. lambda in
      let bound = if ratio < 1. then w' /. (1. -. ratio) else infinity in
      if bound <= cutoff then begin
        left_tail := bound;
        continue := false
      end
      else begin
        left_weights := w' :: !left_weights;
        n := !n - 1;
        w := w'
      end
    done;
    let left = !n in
    let ws =
      Array.of_list (!left_weights @ (w_mode :: List.rev !right_weights))
    in
    let total = Array.fold_left ( +. ) 0. ws in
    let ws = Array.map (fun x -> x /. total) ws in
    Telemetry.observe_int h_window (right - left + 1);
    (* Truncation accounting: the geometric tail bounds captured at
       the two stopping points, relative to the represented mass.
       Dividing by [total] cancels the common scale of the recurrence
       (all weights inherit exp(log w_mode)'s ~lambda*eps relative
       error, so [1 - sum] could NOT resolve a 1e-12 truncation), and
       by construction the bound stays <= accuracy/2 — what the
       a-posteriori sweep verification audits against [accuracy]. *)
    { left; right; weights = ws; defect = (!left_tail +. !right_tail) /. total }
  end

let prob t n =
  if n < t.left || n > t.right then 0. else t.weights.(n - t.left)

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to Array.length t.weights - 1 do
    acc := f !acc (t.left + i) t.weights.(i)
  done;
  !acc

let expect t (xs : float array) =
  if Array.length xs <= t.right then
    invalid_arg "Poisson.expect: series shorter than the window";
  let ws = t.weights and left = t.left in
  let acc = ref 0. in
  for i = 0 to Array.length ws - 1 do
    acc := !acc +. (Array.unsafe_get ws i *. Array.unsafe_get xs (left + i))
  done;
  !acc

(* Left to right from [0.], the order [Array.fold_left ( +. )] adds in,
   but with the sum in a register: the fold would box every partial
   sum, and every sweep's a-posteriori check totals each window. *)
let total t =
  let ws = t.weights in
  let acc = ref 0. in
  for i = 0 to Array.length ws - 1 do
    acc := !acc +. Array.unsafe_get ws i
  done;
  !acc

let cdf_complement t n =
  fold t ~init:0. ~f:(fun acc m w -> if m > n then acc +. w else acc)
