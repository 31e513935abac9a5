(* The adaptive-support stepping kernel: accuracy contract against the
   exact full-support oracle, the threshold = 0 bitwise-identity
   degeneration at every job count, the work/window statistics, and
   checkpoint/resume of an adaptive sweep. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_battery
open Batlife_workload
open Batlife_core

let onoff_model ~frequency ~capacity ~c ~k =
  Kibamrm.create
    ~workload:(Onoff.model ~frequency ~k:1 ~on_current:0.96 ())
    ~battery:(Kibam.params ~capacity ~c ~k)

let fig7_model () = onoff_model ~frequency:1.0 ~capacity:7200. ~c:1. ~k:0.

(* The fig-2 battery: two wells. *)
let fig2_model () =
  onoff_model ~frequency:1.0 ~capacity:7200. ~c:0.625 ~k:4.5e-5

let oracle_opts ?jobs () = Solver_opts.make ?jobs ~adaptive_support:false ()

let bits (c : Lifetime.curve) =
  Array.map Int64.bits_of_float c.Lifetime.probabilities

let is_budget = function Diag.Budget_exhausted _ -> true | _ -> false

(* The documented deviation bound: the adaptive pruner's skipped mass
   is hard-capped at accuracy / 2, and any linear measure of the
   iterate (a CDF value in particular) deviates from the exact
   full-support result by at most that skipped mass. *)
let prop_adaptive_matches_oracle =
  qcheck ~count:15 "adaptive CDF within skipped-mass bound of the oracle"
    QCheck.(
      triple
        (pos_float_arb 2000. 9000.)
        (pos_float_arb 0.5 0.95)
        (pos_float_arb 0.02 0.2))
    (fun (capacity, c, frequency) ->
      let model = onoff_model ~frequency ~capacity ~c ~k:4.5e-5 in
      let delta = 300. and times = [| 3000.; 9000. |] in
      let adaptive = Lifetime.cdf ~delta ~times model in
      let oracle = Lifetime.cdf ~opts:(oracle_opts ()) ~delta ~times model in
      let tol = Solver_opts.default.Solver_opts.accuracy in
      Array.for_all2
        (fun a o -> Float.abs (a -. o) <= tol)
        adaptive.Lifetime.probabilities oracle.Lifetime.probabilities)

(* support_threshold = Some 0. prunes only exact zeros: the window
   still shrinks, but every arithmetic operation that contributes to
   the result is performed on identical values in an identical order,
   so the curve is bitwise identical to the exact kernel's — at every
   job count (the gather is bitwise job-count-independent on top). *)
let test_threshold_zero_bitwise () =
  let model = fig7_model () in
  let delta = 100. and times = [| 4000.; 9000.; 14000. |] in
  let reference =
    bits (Lifetime.cdf ~opts:(oracle_opts ~jobs:1 ()) ~delta ~times model)
  in
  List.iter
    (fun jobs ->
      let adaptive =
        Lifetime.cdf
          ~opts:(Solver_opts.make ~jobs ~support_threshold:0. ())
          ~delta ~times model
      in
      check_true
        (Printf.sprintf "threshold 0 == exact kernel bitwise at jobs %d" jobs)
        (bits adaptive = reference))
    [ 1; 2; 4 ]

(* The default adaptive sweep must actually skip work, report a sane
   final window, and keep its skipped mass inside the budget. *)
let test_adaptive_stats_and_work () =
  let d = Discretized.build ~delta:100. (fig7_model ()) in
  let g = d.Discretized.generator in
  let alpha = d.Discretized.alpha in
  let times = [| 4000.; 12000. |] in
  let n = Discretized.n_states d in
  let adaptive, astats =
    Transient.measure_sweep g ~alpha ~times ~measure:Vector.sum
  in
  let oracle, ostats =
    Transient.measure_sweep ~opts:(oracle_opts ()) g ~alpha ~times
      ~measure:Vector.sum
  in
  Array.iteri
    (fun i a ->
      check_float ~eps:1e-12 "mass conserved under pruning" oracle.(i) a)
    adaptive;
  let full_nnz =
    Sparse.nnz (Generator.uniformised g ~q:(Transient.resolve_rate g))
  in
  check_int "oracle touches every nonzero every step"
    (ostats.Transient.iterations * full_nnz)
    ostats.Transient.touched_nnz;
  check_true "adaptive touched strictly less"
    (astats.Transient.touched_nnz < ostats.Transient.touched_nnz);
  check_true "adaptive rows strictly less"
    (astats.Transient.active_rows < ostats.Transient.active_rows);
  check_true "oracle window is full support"
    (ostats.Transient.support_lo = 0 && ostats.Transient.support_hi = n);
  check_true "adaptive window well-formed"
    (astats.Transient.support_lo >= 0
    && astats.Transient.support_lo <= astats.Transient.support_hi
    && astats.Transient.support_hi <= n);
  check_true "oracle skipped nothing" (ostats.Transient.skipped_mass = 0.);
  check_true "skipped mass within the accuracy/2 budget"
    (astats.Transient.skipped_mass >= 0.
    && astats.Transient.skipped_mass
       <= Solver_opts.default.Solver_opts.accuracy /. 2.)

(* The support the sweep reports is the iterate's live support: every
   entry outside the hull [support_lo, support_hi) is exactly 0., the
   hull is tile-aligned, and its first and last tiles each hold a
   nonzero (the pruner never keeps an all-zero tile).  The final
   iterate comes from the sweep's own progress snapshot, so this
   compares two independent outputs of the kernel. *)
let test_outside_window_exact_zero () =
  let d = Discretized.build ~delta:100. (fig7_model ()) in
  let g = d.Discretized.generator in
  let alpha = d.Discretized.alpha in
  let n = Discretized.n_states d in
  let last = ref None in
  let progress =
    Progress.make ~on_step:(fun ~step:_ ~snapshot -> last := Some snapshot) ()
  in
  let _, stats =
    Transient.measure_sweep ~progress g ~alpha ~times:[| 8000. |]
      ~measure:Vector.sum
  in
  let v =
    match !last with
    | Some snapshot -> (snapshot ()).Transient.sp_vector
    | None -> Alcotest.fail "the sweep reported no step"
  in
  let lo = stats.Transient.support_lo and hi = stats.Transient.support_hi in
  let tile = Transient.tile_width n in
  check_true "support hull is a nonempty range of the state space"
    (0 <= lo && lo < hi && hi <= n);
  check_true "support hull is tile-aligned"
    (lo mod tile = 0 && (hi mod tile = 0 || hi = n));
  Array.iteri
    (fun i x ->
      if (i < lo || i >= hi) && x <> 0. then
        Alcotest.failf "entry %d = %h outside the support [%d, %d)" i x lo hi)
    v;
  let holds_nonzero a b =
    let found = ref false in
    for i = a to b - 1 do
      if v.(i) <> 0. then found := true
    done;
    !found
  in
  check_true "first support tile holds a nonzero"
    (holds_nonzero lo (Int.min hi (lo + tile)));
  check_true "last support tile holds a nonzero"
    (holds_nonzero (Int.max lo ((hi - 1) / tile * tile)) hi)

(* A warm sweep with caller-supplied buffers, kernel and windows
   allocates a fixed number of minor-heap words per product, whatever
   the state count: the segment sets live in flat buffers made once
   per sweep.  Two chains of different size must read the same small
   figure. *)
let words_per_product model ~delta =
  let d = Discretized.build ~delta model in
  let g = d.Discretized.generator and alpha = d.Discretized.alpha in
  let n = Discretized.n_states d in
  let q = Transient.resolve_rate g in
  let kernel = Transient.make_kernel g in
  let buffers = (Array.make n 0., Array.make n 0.) in
  (* Enough steps for the per-sweep setup to wash out. *)
  let times = [| 700. /. q |] in
  let windows = [| Poisson.weights (q *. times.(0)) |] in
  let sweep () =
    Transient.measure_sweep ~windows ~buffers ~kernel g ~alpha ~times
      ~measure:Vector.sum
  in
  ignore (sweep ());
  let before = Gc.minor_words () in
  let _, stats = sweep () in
  let words = Gc.minor_words () -. before in
  let products = stats.Transient.iterations in
  check_true
    (Printf.sprintf "%d states: at least 500 products (got %d)" n products)
    (products >= 500);
  words /. float_of_int products

let test_product_allocation_fixed () =
  let small = words_per_product (fig7_model ()) ~delta:100. in
  let twowell = words_per_product (fig2_model ()) ~delta:300. in
  check_true
    (Printf.sprintf "fig-7 (146 states): %.1f minor words per product <= 64"
       small)
    (small <= 64.);
  check_true
    (Printf.sprintf "two-well (320 states): %.1f minor words per product <= 64"
       twowell)
    (twowell <= 64.);
  check_true
    (Printf.sprintf
       "words per product independent of the state count (%.1f vs %.1f)" small
       twowell)
    (Float.abs (small -. twowell) <= 4.)

(* Products above the inline cutoff are partitioned and dispatched to
   the pool: a full-support sweep of the 39k-state fig-2 chain touches
   every nonzero on every product, so at jobs 2 and 4 each one is a
   parallel section, and the result must still be bitwise that of
   jobs 1. *)
let test_dispatched_products_bitwise () =
  let d = Discretized.build ~delta:25. (fig2_model ()) in
  let g = d.Discretized.generator and alpha = d.Discretized.alpha in
  let q = Transient.resolve_rate g in
  let times = [| 120. /. q; 240. /. q |] in
  let coefficients = Array.init (Discretized.n_states d) float_of_int in
  let measures = [| Vector.sum; (fun v -> Vector.dot coefficients v) |] in
  let sections = Telemetry.counter "pool.sections" in
  let run jobs =
    let before = Telemetry.value sections in
    let results, stats =
      Transient.multi_measure_sweep
        ~opts:(Solver_opts.make ~jobs ~adaptive_support:false ())
        g ~alpha ~times ~measures
    in
    ( Array.map (Array.map Int64.bits_of_float) results,
      stats.Transient.iterations,
      Telemetry.value sections - before )
  in
  let reference, products, _ = run 1 in
  check_true "a few hundred products" (products >= 200);
  List.iter
    (fun jobs ->
      let bits, _, dispatched = run jobs in
      check_true
        (Printf.sprintf "jobs=%d: every product dispatched (%d sections)" jobs
           dispatched)
        (dispatched >= products);
      check_true
        (Printf.sprintf "jobs=%d bitwise equal to jobs=1" jobs)
        (bits = reference))
    [ 2; 4 ]

(* An explicit threshold so absurd that the cap would be unreachable
   scales the cap with it (documented); a negative or non-finite one is
   rejected up front. *)
let test_threshold_validation () =
  check_raises_invalid "negative threshold" (fun () ->
      ignore (Solver_opts.make ~support_threshold:(-1e-9) ()));
  check_raises_invalid "NaN threshold" (fun () ->
      ignore (Solver_opts.make ~support_threshold:Float.nan ()))

(* Checkpoint/resume of an adaptive sweep: the snapshot carries the
   skipped-mass tally and the stored vector's nonzero extent IS the
   live window, so a resumed run is bitwise identical to an
   uninterrupted one. *)
let test_adaptive_resume_bitwise () =
  let model = fig7_model () in
  let delta = 100. and times = [| 4000.; 8000.; 12000. |] in
  let reference = Lifetime.cdf ~delta ~times model in
  let path = Filename.temp_file "batlife_kernel" ".ckpt" in
  Sys.remove path;
  check_raises_diag "budget interrupts the adaptive sweep" is_budget
    (fun () ->
      Budget.with_ambient
        (Budget.create ~max_products:40 ())
        (fun () ->
          ignore
            (Lifetime.cdf_resumable ~checkpoint:(path, 5) ~delta ~times model)));
  check_true "interrupt flushed a checkpoint" (Sys.file_exists path);
  let resumed = Lifetime.cdf_resumable ~resume:path ~delta ~times model in
  check_true "resumed adaptive run == uninterrupted bitwise"
    (bits resumed = bits reference);
  check_int "full iteration count after resume" reference.Lifetime.iterations
    resumed.Lifetime.iterations;
  Sys.remove path

let suite =
  [
    prop_adaptive_matches_oracle;
    case "threshold 0 is bitwise exact at jobs 1/2/4"
      test_threshold_zero_bitwise;
    case "adaptive stats: less work, sane window, budgeted skip"
      test_adaptive_stats_and_work;
    case "iterate exactly zero outside the window"
      test_outside_window_exact_zero;
    case "warm products allocate a fixed few words"
      test_product_allocation_fixed;
    case "dispatched products bitwise at jobs 1/2/4"
      test_dispatched_products_bitwise;
    case "support threshold validation" test_threshold_validation;
    case "adaptive checkpoint/resume bitwise" test_adaptive_resume_bitwise;
  ]
