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
    Transient.measure_sweep g ~alpha ~times ~measure:(total_mass n)
  in
  let oracle, ostats =
    Transient.measure_sweep ~opts:(oracle_opts ()) g ~alpha ~times
      ~measure:(total_mass n)
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
      ~measure:(total_mass n)
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

(* The sweep reads each measure over the iterate's live support only.
   Random functionals on an adaptive sweep of the fig-7 Delta=100
   chain, whose support is a strict subset of its 146 states that
   moves as the charge drains: at every step, each value the sweep
   recorded must be bitwise the ascending sum over the functional's
   whole index set, computed here on the full iterate. *)
let fig7_states = 146

let explicit_sum (v : float array) m =
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      match m with
      | Transient.Sum { lo; hi; stride } ->
          if lo <= i && i < hi && (i - lo) mod stride = 0 then
            acc := !acc +. x
      | Transient.Weighted { slab; weights } ->
          acc := !acc +. (weights.(i / slab) *. x))
    v;
  !acc

let measure_arb n =
  let open QCheck.Gen in
  let sum =
    let* lo = int_range 0 n in
    let* hi = int_range lo n in
    let+ stride =
      frequency
        [ (3, int_range 1 4); (1, int_range 5 (2 * n)); (1, return max_int) ]
    in
    Transient.Sum { lo; hi; stride }
  in
  let weighted =
    let* slab = frequency [ (2, int_range 1 4); (1, int_range 5 (n + 8)) ] in
    let+ weights =
      array_repeat (((n - 1) / slab) + 1) (float_range (-10.) 10.)
    in
    Transient.Weighted { slab; weights }
  in
  let print = function
    | Transient.Sum { lo; hi; stride } ->
        Printf.sprintf "Sum { lo = %d; hi = %d; stride = %d }" lo hi stride
    | Transient.Weighted { slab; weights } ->
        Printf.sprintf "Weighted { slab = %d; %d weights }" slab
          (Array.length weights)
  in
  QCheck.make
    ~print:QCheck.Print.(list print)
    (list_size (int_range 1 6) (oneof [ sum; weighted ]))

let prop_readout_over_live_support =
  qcheck ~count:25 "measures read over the live support, bitwise"
    (measure_arb fig7_states) (fun measures ->
      let d = Discretized.build ~delta:100. (fig7_model ()) in
      let g = d.Discretized.generator and alpha = d.Discretized.alpha in
      let n = Discretized.n_states d in
      check_int "fig-7 Delta=100 states" fig7_states n;
      let measures = Array.of_list measures in
      let tile = Transient.tile_width n in
      let lows = ref [] and agree = ref true in
      let on_step ~step ~snapshot =
        let s = snapshot () in
        let v = s.Transient.sp_vector in
        let low = ref 0 in
        while !low < n && v.(!low) = 0. do incr low done;
        lows := !low :: !lows;
        Array.iteri
          (fun j m ->
            let swept = s.Transient.sp_values.(j).(step) in
            if Int64.bits_of_float swept
               <> Int64.bits_of_float (explicit_sum v m)
            then agree := false)
          measures
      in
      let q = Transient.resolve_rate g in
      ignore
        (Transient.multi_measure_sweep
           ~progress:(Progress.make ~on_step ())
           g ~alpha ~times:[| 400. /. q |] ~measures);
      let lows = List.sort_uniq compare !lows in
      (* The support must leave whole tiles out and must move. *)
      !agree
      && List.exists (fun low -> low >= tile) lows
      && List.length lows >= 2)

(* A warm sweep with caller-supplied buffers, kernel and windows
   allocates no words per product, whatever the state count and the
   number of measures: the segment sets live in flat buffers made once
   per sweep, the product's floats in unboxed fields, and each
   measure's value goes straight into its series.  What a sweep
   allocates is its set-up, so spread over 900 products it must stay
   under 8 words per product; two chains of different size must read
   about the same figure, and the 22 functionals of a two-well
   dashboard refresh must cost at most 2 words per product more than
   one sum.  27 time points, as many windows for the a-posteriori
   check, must stay under the same 8. *)
let words_per_product
    ?(measures = fun d -> [| total_mass (Discretized.n_states d) |])
    ?(points = 1) model ~delta =
  let d = Discretized.build ~delta model in
  let g = d.Discretized.generator and alpha = d.Discretized.alpha in
  let n = Discretized.n_states d in
  let measures = measures d in
  let q = Transient.resolve_rate g in
  let kernel = Transient.make_kernel g in
  let buffers = (Array.make n 0., Array.make n 0.) in
  (* Enough steps for the per-sweep setup to wash out. *)
  let times =
    Array.init points (fun i -> (700. -. (10. *. float_of_int i)) /. q)
  in
  let windows = Array.map (fun t -> Poisson.weights (q *. t)) times in
  let sweep () =
    Transient.multi_measure_sweep ~windows ~buffers ~kernel g ~alpha ~times
      ~measures
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

(* The functionals of a twowell-dashboard refresh, as the session
   builds them: the absorbed mass for each of two CDF grids, one slab
   per charge level, one stride per workload state, the expected
   charge and a joint (mode, min-charge) probability. *)
let dashboard_measures d =
  let grid = d.Discretized.grid in
  let n = Discretized.n_states d and k = grid.Grid.n_workload in
  let levels1 = grid.Grid.levels1 in
  let slab = grid.Grid.levels2 * k in
  let absorbed = Transient.Sum { lo = 0; hi = slab; stride = 1 } in
  let measures =
    Array.concat
      [
        [| absorbed; absorbed |];
        Array.init levels1 (fun j1 ->
            Transient.Sum { lo = j1 * slab; hi = (j1 + 1) * slab; stride = 1 });
        Array.init k (fun m -> Transient.Sum { lo = m; hi = n; stride = k });
        [|
          Transient.Weighted
            { slab; weights = Array.init levels1 float_of_int };
          Transient.Sum { lo = (levels1 / 2 * slab) + 1; hi = n; stride = k };
        |];
      ]
  in
  check_int "22 dashboard functionals" 22 (Array.length measures);
  measures

let test_product_allocation_fixed () =
  let small = words_per_product (fig7_model ()) ~delta:100. in
  let twowell = words_per_product (fig2_model ()) ~delta:300. in
  let dashboard =
    words_per_product ~measures:dashboard_measures (fig2_model ()) ~delta:300.
  in
  let grid =
    words_per_product ~measures:dashboard_measures ~points:27 (fig2_model ())
      ~delta:300.
  in
  check_true
    (Printf.sprintf "fig-7 (146 states): %.1f minor words per product <= 8"
       small)
    (small <= 8.);
  check_true
    (Printf.sprintf "two-well (320 states): %.1f minor words per product <= 8"
       twowell)
    (twowell <= 8.);
  check_true
    (Printf.sprintf
       "words per product independent of the state count (%.1f vs %.1f)" small
       twowell)
    (Float.abs (small -. twowell) <= 4.);
  check_true
    (Printf.sprintf
       "22 dashboard functionals: %.1f minor words per product, one sum %.1f"
       dashboard twowell)
    (dashboard <= twowell +. 2.);
  check_true
    (Printf.sprintf "27 time points: %.1f minor words per product <= 8" grid)
    (grid <= 8.)

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
  let n = Discretized.n_states d in
  let measures =
    [|
      total_mass n;
      Transient.Weighted { slab = 1; weights = Array.init n float_of_int };
    |]
  in
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

(* Golden bits of adaptive sweeps, recorded before the per-product
   bookkeeping was rewritten (per-tile sums, guard mass from the kept
   tiles, interval dilation, counters published once per sweep): the
   absorbed-mass series at four steps, in hex, and every work and
   support statistic.  Any later kernel change must reproduce them or
   say which answer it moves.  The chains: a zipf-mix service chain
   (38 states), the two-well dashboard chain (320 states), fig-2 at
   Delta=100 and 1 Hz (pruning drops nonzero tiles and the sweep stops
   early at step 55,474) and a 1e-9 support threshold that prunes
   hard. *)
let golden_fingerprint ?(opts = Solver_opts.default) model ~delta ~times =
  let d = Discretized.build ~delta model in
  let g = d.Discretized.generator and alpha = d.Discretized.alpha in
  let absorbed =
    Transient.Sum
      { lo = 0; hi = Grid.absorbing_block_size d.Discretized.grid; stride = 1 }
  in
  let q = Transient.resolve_rate ~opts g in
  let windows =
    Array.map
      (fun t -> Poisson.weights ~accuracy:opts.Solver_opts.accuracy (q *. t))
      times
  in
  let series, s =
    Transient.multi_measure_series ~opts g ~alpha ~times ~windows
      ~measures:[| absorbed |]
  in
  let row = series.(0) in
  let last = Array.length row - 1 in
  let at i = Printf.sprintf "%d:%h" i row.(i) in
  Printf.sprintf
    "states %d, iterations %d, converged_at %s, skipped %h, touched %d, rows \
     %d, support [%d, %d), series %s"
    (Discretized.n_states d) s.Transient.iterations
    (match s.Transient.converged_at with
    | Some m -> string_of_int m
    | None -> "none")
    s.Transient.skipped_mass s.Transient.touched_nnz s.Transient.active_rows
    s.Transient.support_lo s.Transient.support_hi
    (String.concat " "
       (List.map at [ last / 4; last / 2; 3 * last / 4; last ]))

let two_well ~frequency =
  onoff_model ~frequency ~capacity:7200. ~c:0.625 ~k:4.5e-5

let golden_sweeps =
  [
    ( "zipf-mix 38 states",
      (fun () ->
        golden_fingerprint
          (onoff_model ~frequency:0.1 ~capacity:5400. ~c:1. ~k:0.)
          ~delta:300. ~times:[| 5000.; 10000.; 15000.; 25000. |]),
      "states 38, iterations 5710, converged_at none, skipped \
       0x1.9ec55d0b8362ap-51, touched 524872, rows 216788, support [0, 32), \
       series 1427:0x1.d058631e0c729p-5 2855:0x1.c4f2a262942dep-1 \
       4282:0x1.ff98234b49bedp-1 5710:0x1.ffffdbe606df8p-1" );
    ( "two-well 320 states",
      (fun () ->
        golden_fingerprint (two_well ~frequency:0.1) ~delta:300.
          ~times:[| 4000.; 10000.; 16000.; 18000. |]),
      "states 320, iterations 4200, converged_at none, skipped \
       0x1.189cafa502bbdp-46, touched 3802714, rows 1339800, support [0, \
       304), series 1050:0x1.e4cfc63198f56p-7 2100:0x1.d9a4660d2b0d2p-2 \
       3150:0x1.d6c46c1bb66d9p-1 4200:0x1.fdf9e3648620ap-1" );
    ( "fig-2 two-well, Delta=100, 1 Hz",
      (fun () ->
        golden_fingerprint (two_well ~frequency:1.) ~delta:100.
          ~times:(Array.init 51 (fun i -> 5000. +. (500. *. float_of_int i)))),
      "states 2576, iterations 55474, converged_at 55474, skipped \
       0x1.1568305fe178fp-43, touched 271860458, rows 88159704, support [0, \
       640), series 15848:0x1.8c2025d82c21p-7 31696:0x1.f16c89cbcfdc1p-1 \
       47544:0x1.fffffa1f23fc8p-1 63393:0x1.ffffffffacdap-1" );
    ( "support threshold 1e-9",
      (fun () ->
        golden_fingerprint
          ~opts:(Solver_opts.make ~support_threshold:1e-9 ())
          (two_well ~frequency:0.025) ~delta:300.
          ~times:[| 4000.; 10000.; 16000.; 18000. |]),
      "states 320, iterations 1232, converged_at none, skipped \
       0x1.3533f28eba752p-23, touched 1042056, rows 363952, support [0, \
       200), series 308:0x1.e3365fa97a286p-6 616:0x1.32dd2ec31f988p-1 \
       924:0x1.ee28bfb9b5a29p-1 1232:0x1.ff8ded09f9168p-1" );
  ]

let test_golden_sweeps () =
  List.iter
    (fun (name, sweep, expected) ->
      Alcotest.(check string) name expected (sweep ()))
    golden_sweeps

(* The transient work counters on the interrupt path.  A budget of 40
   products stops a fig-7 sweep before its 41st product; the counters
   must advance by exactly the work done by then, which is the full
   sweep's work minus that of the sweep resumed from the interrupt's
   snapshot. *)
let test_interrupted_sweep_counters () =
  let d = Discretized.build ~delta:100. (fig7_model ()) in
  let g = d.Discretized.generator and alpha = d.Discretized.alpha in
  let times = [| 8000. |]
  and measures = [| total_mass (Discretized.n_states d) |] in
  let counters =
    List.map Telemetry.counter
      [ "transient.products"; "transient.touched_nnz"; "transient.active_rows" ]
  in
  let read () = List.map Telemetry.value counters in
  let _, full = Transient.multi_measure_sweep g ~alpha ~times ~measures in
  let snapshot = ref None in
  let before = read () in
  check_raises_diag "40 products exhaust the budget" is_budget (fun () ->
      Budget.with_ambient
        (Budget.create ~max_products:40 ())
        (fun () ->
          ignore
            (Transient.multi_measure_sweep
               ~progress:
                 (Progress.make ~on_interrupt:(fun s -> snapshot := Some s) ())
               g ~alpha ~times ~measures)));
  let moved = List.map2 ( - ) (read ()) before in
  let resume =
    match !snapshot with
    | Some s -> s
    | None -> Alcotest.fail "the interrupt flushed no snapshot"
  in
  check_int "interrupted after 40 products" 40 resume.Transient.sp_step;
  let _, rest =
    Transient.multi_measure_sweep ~progress:(Progress.make ~resume ()) g
      ~alpha ~times ~measures
  in
  check_int "the resumed sweep ends where the full one does"
    full.Transient.iterations rest.Transient.iterations;
  check_true "the first 40 products did some work"
    (full.Transient.touched_nnz > rest.Transient.touched_nnz);
  Alcotest.(check (list int))
    "products, touched nnz and active rows of the first 40 products"
    [
      40;
      full.Transient.touched_nnz - rest.Transient.touched_nnz;
      full.Transient.active_rows - rest.Transient.active_rows;
    ]
    moved

(* The pruner decides from a tile's magnitude sum and rescans the tile
   only when the sum is at most 2 len tau.  Against the exact max test
   it replaced — a running max whose branch lets a NaN through unless
   it is last, and the ascending sum for the cap — on random tiles of
   1 to 64 entries, with entries at, just past and below tau, signed
   zeros, subnormals, NaN and infinities, and thresholds of 0, 1e-300,
   the smallest subnormal, a negative value, NaN and infinity. *)
let exact_max_decision tile ~tau ~skipped ~cap =
  let mx = ref 0. and sm = ref 0. in
  Array.iter
    (fun x ->
      let ax = Float.abs x in
      if not (ax <= !mx) then mx := ax;
      sm := !sm +. ax)
    tile;
  !mx <= tau && skipped +. !sm <= cap

let prune_case =
  let open QCheck.Gen in
  let* tau =
    frequency
      [
        (1, return 0.);
        (1, return 1e-300);
        (1, return 5e-324);
        (1, return (-1e-9));
        (1, return Float.nan);
        (1, return Float.infinity);
        (4, float_range 1e-15 1e-3);
      ]
  in
  let entry =
    frequency
      [
        (8, map (fun u -> u *. tau) (float_range 0. 1.));
        (3, return tau);
        (1, return (-.tau));
        (1, return (Float.succ tau));
        (1, return (Float.pred tau));
        (2, return 0.);
        (2, return (-0.));
        (1, oneofl [ 5e-324; Float.min_float /. 3.; -.Float.min_float ]);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        (1, float_range (-1.) 1.);
      ]
  in
  let* len = frequency [ (1, return 1); (1, return 64); (4, int_range 1 64) ] in
  let* tile = array_repeat len entry in
  let* skipped = oneofl [ 0.; 1e-12; 5e-324 ] in
  let+ cap =
    frequency
      [
        (4, return Float.infinity);
        (1, return 0.);
        (1, return skipped);
        ( 2,
          map
            (fun u -> skipped +. (u *. 64. *. Float.abs tau))
            (float_range 0. 1.) );
      ]
  in
  (tau, tile, skipped, cap)

let prop_prune_decision_exact =
  qcheck ~count:2000 "the sum-filtered prune decision is the exact max test"
    (QCheck.make
       ~print:(fun (tau, tile, skipped, cap) ->
         Printf.sprintf "tau %h, skipped %h, cap %h, tile [%s]" tau skipped cap
           (String.concat "; "
              (Array.to_list (Array.map (Printf.sprintf "%h") tile))))
       prune_case)
    (fun (tau, tile, skipped, cap) ->
      Transient.prune_decision tile ~tau ~skipped ~cap
      = exact_max_decision tile ~tau ~skipped ~cap)

let suite =
  [
    prop_adaptive_matches_oracle;
    prop_prune_decision_exact;
    case "golden bits of adaptive sweeps" test_golden_sweeps;
    case "work counters advance on the interrupt path"
      test_interrupted_sweep_counters;
    case "threshold 0 is bitwise exact at jobs 1/2/4"
      test_threshold_zero_bitwise;
    case "adaptive stats: less work, sane window, budgeted skip"
      test_adaptive_stats_and_work;
    case "iterate exactly zero outside the window"
      test_outside_window_exact_zero;
    prop_readout_over_live_support;
    case "warm products allocate a fixed few words"
      test_product_allocation_fixed;
    case "dispatched products bitwise at jobs 1/2/4"
      test_dispatched_products_bitwise;
    case "support threshold validation" test_threshold_validation;
    case "adaptive checkpoint/resume bitwise" test_adaptive_resume_bitwise;
  ]
