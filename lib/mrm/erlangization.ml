open Batlife_numerics
open Batlife_ctmc

(* Product chain over (model state, consumed stages 0..m); stage m is
   the absorbing "budget exhausted" layer, collapsed per state.  Layout:
   index = stage * n + i, so the absorbing layer is the trailing
   block. *)
let build_product (m : Mrm.t) ~budget ~stages =
  if budget <= 0. then invalid_arg "Erlangization: non-positive budget";
  if stages < 1 then invalid_arg "Erlangization: need stages >= 1";
  let n = Mrm.n_states m in
  let stage_rate = float_of_int stages /. budget in
  let total = (stages + 1) * n in
  let wq = Generator.matrix m.Mrm.generator in
  let b =
    Sparse.Builder.create
      ~initial_capacity:(total * 4)
      ~rows:total ~cols:total ()
  in
  for stage = 0 to stages - 1 do
    let base = stage * n in
    Sparse.iter wq (fun i j rate ->
        if i <> j && rate > 0. then
          Sparse.Builder.add b (base + i) (base + j) rate);
    for i = 0 to n - 1 do
      let r = m.Mrm.rewards.(i) in
      if r > 0. then
        Sparse.Builder.add b (base + i) (base + n + i) (r *. stage_rate)
    done
  done;
  (* Stage [stages] rows stay empty: absorbing. *)
  let alpha = Array.make total 0. in
  Array.blit m.Mrm.alpha 0 alpha 0 n;
  (Generator.of_builder b, alpha, stages * n)

let exceedance ?accuracy ?(stages = 512) m ~budget ~times =
  let g, alpha, absorbing_start = build_product m ~budget ~stages in
  let measure =
    Transient.Sum
      { lo = absorbing_start; hi = Array.length alpha; stride = 1 }
  in
  let results, _ =
    Transient.measure_sweep
      ~opts:(Solver_opts.make ?accuracy ())
      g ~alpha ~times ~measure
  in
  results

let cdf ?accuracy ?stages m ~t ~ys =
  Array.map
    (fun y ->
      if y < 0. then 0.
      else if y = 0. then begin
        (* P(Y(t) = 0): only if the chain can stay in zero-reward
           states; approximate by a tiny budget. *)
        let eps = 1e-9 *. Float.max t 1. in
        1. -. (exceedance ?accuracy ?stages m ~budget:eps ~times:[| t |]).(0)
      end
      else 1. -. (exceedance ?accuracy ?stages m ~budget:y ~times:[| t |]).(0))
    ys

let exceedance_auto ?accuracy ?(initial_stages = 256) ?(tolerance = 1e-4)
    ?(max_stages = 16384) m ~budget ~times =
  let rec refine stages previous =
    let current = exceedance ?accuracy ~stages m ~budget ~times in
    match previous with
    | Some prev when Vector.dist_inf prev current <= tolerance ->
        (current, stages)
    | _ ->
        if 2 * stages > max_stages then (current, stages)
        else refine (2 * stages) (Some current)
  in
  refine initial_stages None
