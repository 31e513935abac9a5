open Batlife_numerics
open Batlife_ctmc
open Batlife_battery
open Batlife_workload

type t = {
  model : Kibamrm.t;
  grid : Grid.t;
  generator : Generator.t;
  alpha : float array;
}

let c_builds = Telemetry.counter "discretized.builds"
let g_states = Telemetry.gauge "discretized.states"
let g_nnz = Telemetry.gauge "discretized.nnz"

let build ?initial_fill ?(absorb_empty = true) ~delta model =
  Telemetry.incr c_builds;
  Telemetry.with_span "discretized.build" @@ fun () ->
  let workload = model.Kibamrm.workload in
  let battery = model.Kibamrm.battery in
  let u1, u2 = Kibamrm.upper_bounds model in
  let n = Model.n_states workload in
  let grid = Grid.create ~delta ~u1 ~u2 ~n_workload:n in
  let levels1 = grid.Grid.levels1 and levels2 = grid.Grid.levels2 in
  let total = Grid.total_states grid in
  let wq = Generator.matrix workload.Model.generator in
  (* Capacity estimate: every non-absorbing state carries the workload
     out-transitions plus at most one consumption, one transfer and the
     diagonal. *)
  let offdiag = Sparse.nnz wq - n in
  let capacity_estimate = total * (3 + ((offdiag + (n - 1)) / n)) in
  let b =
    Sparse.Builder.create ~initial_capacity:capacity_estimate ~rows:total
      ~cols:total ()
  in
  let c = battery.Kibam.c and k = battery.Kibam.k in
  let degenerate = Kibamrm.is_degenerate model in
  let lowest_live = if absorb_empty then 1 else 0 in
  for j1 = lowest_live to levels1 - 1 do
    (* When [absorb_empty], j1 = 0 has no outgoing transitions. *)
    for j2 = 0 to levels2 - 1 do
      let base = Grid.index grid ~state:0 ~j1 ~j2 in
      (* Workload transitions stay within the (j1, j2) block. *)
      Sparse.iter wq (fun i i' rate ->
          if i <> i' && rate > 0. then
            Sparse.Builder.add b (base + i) (base + i') rate);
      for i = 0 to n - 1 do
        let src = base + i in
        (* Consumption: one level down in the available charge (no
           consumption possible at the empty level). *)
        let current = Model.current workload i in
        if current > 0. && j1 > 0 then
          Sparse.Builder.add b src
            (Grid.index grid ~state:i ~j1:(j1 - 1) ~j2)
            (current /. delta);
        (* Bound-to-available transfer (Section 5.2): rate
           k (h2 - h1) / delta with h at the lower interval ends. *)
        if (not degenerate) && j2 > 0 && j1 < levels1 - 1 then begin
          let rate =
            k *. ((float_of_int j2 /. (1. -. c)) -. (float_of_int j1 /. c))
          in
          if rate > 0. then
            Sparse.Builder.add b src
              (Grid.index grid ~state:i ~j1:(j1 + 1) ~j2:(j2 - 1))
              rate
        end
      done
    done
  done;
  let generator = Generator.of_builder b in
  Telemetry.set_gauge g_states (float_of_int total);
  Telemetry.set_gauge g_nnz (float_of_int (Generator.nnz generator));
  (* Initial distribution: the workload's alpha placed at the levels
     containing the initial fill (a1, a2). *)
  let a1, a2 =
    match initial_fill with
    | Some (a1, a2) -> (a1, a2)
    | None ->
        let s = Kibam.initial battery in
        (s.Kibam.available, s.Kibam.bound)
  in
  let j1_0 = Grid.level_of1 grid a1 and j2_0 = Grid.level_of2 grid a2 in
  let alpha = Vector.create total in
  Array.iteri
    (fun i p ->
      if p > 0. then alpha.(Grid.index grid ~state:i ~j1:j1_0 ~j2:j2_0) <- p)
    workload.Model.initial;
  { model; grid; generator; alpha }

let n_states t = Grid.total_states t.grid

let nnz t = Generator.nnz t.generator

(* The lifetime CDF's functional: the mass of the leading j1 = 0
   block. *)
let absorbed_mass grid =
  Transient.Sum { lo = 0; hi = Grid.absorbing_block_size grid; stride = 1 }

(* Lower interval end of an available-charge level: the representative
   the expanded generator uses; the empty level contributes charge 0. *)
let level_charge grid j1 =
  if j1 = 0 then 0. else Grid.level_value grid (j1 - 1)

let empty_probability ?opts ?progress t ~times =
  Transient.measure_sweep ?opts ?progress t.generator ~alpha:t.alpha ~times
    ~measure:(absorbed_mass t.grid)

let state_distribution ?opts t ~time =
  Transient.solve ?opts t.generator ~alpha:t.alpha ~t:time

let check_mode grid mode =
  if mode < 0 || mode >= grid.Grid.n_workload then
    invalid_arg "Discretized.joint_probability: mode out of range"

let default_lifetime_tol = 1e-10

let expected_lifetime ?(opts = Solver_opts.default) t =
  Telemetry.with_span "discretized.expected_lifetime" @@ fun () ->
  let tol = Solver_opts.linear_tol_or ~default:default_lifetime_tol opts in
  let g = t.generator in
  let block = Grid.absorbing_block_size t.grid in
  for i = 0 to block - 1 do
    if not (Generator.is_absorbing g i) then
      invalid_arg
        "Discretized.expected_lifetime: needs the absorbing variant \
         (absorb_empty = true)"
  done;
  let n = Grid.total_states t.grid in
  let b =
    Array.init n (fun i -> if i < block then 0. else -1.)
  in
  let robust =
    Iterative.solve_robust ~tol (Generator.matrix g) ~b
      ~skip:(fun i -> i < block)
  in
  Vector.dot t.alpha robust.Iterative.result.Iterative.solution

(* ------------------------------------------------------------------ *)
(* The batched evaluation engine.                                      *)

module Session = struct
  (* Cache-effectiveness counters: hits/misses of the Fox–Glynn window
     cache and the number of kernel (re)builds.  "Second flush over the
     same grid" should show pure hits and zero extra kernel builds —
     asserted by test_engine. *)
  let c_window_hits = Telemetry.counter "session.window_hits"
  let c_window_misses = Telemetry.counter "session.window_misses"
  let c_kernel_builds = Telemetry.counter "session.kernel_builds"
  let c_flushes = Telemetry.counter "session.flushes"

  (* One batch registration: a block of linear functionals to be
     evaluated on this query's own time grid.  [out] is the
     funcs-by-times result block, filled by the shared sweep. *)
  type reg = {
    reg_times : float array;
    funcs : Transient.measure array;
    mutable out : float array array;
    mutable filled : bool;
  }

  type session = {
    d : t;
    opts : Solver_opts.t;  (** with the uniformisation rate pinned *)
    rate : float;
    fox_glynn : (float, Poisson.t) Hashtbl.t;
        (** Fox–Glynn windows keyed by [t]; the key pair [(q, t)] of
            the cache degenerates to [t] because [rate] is pinned for
            the session's lifetime. *)
    mutable buffers : (float array * float array) option;
    mutable kernel : Transient.kernel option;
        (** parallel stepping kernel (transposed uniformised matrix +
            row partition), built on the first sweep and reused — the
            per-sweep transpose cost is paid once per session *)
    mutable queue : reg list;  (** pending registrations, newest first *)
    mutable last_stats : Transient.stats option;
    mutable swept : int;
  }

  type 'a pending = {
    s : session;
    reg : reg;
    finish : float array array -> 'a;
  }

  let create ?(opts = Solver_opts.default) d =
    let rate = Transient.resolve_rate ~opts d.generator in
    (* Pin the rate so cached windows and future sweeps can never
       disagree on q. *)
    let opts = { opts with Solver_opts.unif_rate = Some rate } in
    {
      d;
      opts;
      rate;
      fox_glynn = Hashtbl.create 64;
      buffers = None;
      kernel = None;
      queue = [];
      last_stats = None;
      swept = 0;
    }

  let uniformisation_rate s = s.rate
  let sweeps s = s.swept
  let last_stats s = s.last_stats

  (* Resident-byte estimate of everything the session (and the
     Discretized.t it pins) keeps alive: the generator CSR, the initial
     distribution, the kernel transpose, the sweep buffers and the
     cached Fox–Glynn windows.  An estimate, not an accounting: boxing
     and hashtable overhead are approximated with small per-entry
     constants.  Monotone in what has actually been built, so a fresh
     session is cheap and the byte-budgeted cache re-reads it after
     each use. *)
  let approx_bytes s =
    let n = n_states s.d in
    let sparse_bytes (m : Sparse.t) =
      (Sparse.nnz m * (8 + 4)) + (Array.length m.Sparse.row_ptr * 8)
    in
    let generator = sparse_bytes (Generator.matrix s.d.generator) in
    let alpha = Array.length s.d.alpha * 8 in
    let kernel =
      match s.kernel with None -> 0 | Some k -> Transient.kernel_bytes k
    in
    let buffers = match s.buffers with None -> 0 | Some _ -> 2 * n * 8 in
    let windows =
      Hashtbl.fold
        (fun _ (w : Poisson.t) acc ->
          acc + (Array.length w.Poisson.weights * 8) + 64)
        s.fox_glynn 0
    in
    generator + alpha + kernel + buffers + windows

  let window s t =
    match Hashtbl.find_opt s.fox_glynn t with
    | Some w ->
        Telemetry.incr c_window_hits;
        w
    | None ->
        Telemetry.incr c_window_misses;
        let w =
          Poisson.weights ~accuracy:s.opts.Solver_opts.accuracy (s.rate *. t)
        in
        Hashtbl.add s.fox_glynn t w;
        w

  let cached_windows s = Hashtbl.length s.fox_glynn

  let scratch s =
    match s.buffers with
    | Some b -> b
    | None ->
        let n = n_states s.d in
        let b = (Array.make n 0., Array.make n 0.) in
        s.buffers <- Some b;
        b

  let kernel s =
    match s.kernel with
    | Some k -> k
    | None ->
        Telemetry.incr c_kernel_builds;
        let k = Transient.make_kernel ~opts:s.opts s.d.generator in
        s.kernel <- Some k;
        k

  let register s ~times ~funcs finish =
    let reg = { reg_times = times; funcs; out = [||]; filled = false } in
    s.queue <- reg :: s.queue;
    { s; reg; finish }

  (* Flush every pending registration through ONE multi-measure sweep
     over the union of their time grids.  [budget] bounds just this
     flush: sessions are long-lived (the query service caches them
     across requests), so per-request deadlines cannot be pinned into
     the session's options at create time. *)
  let flush ?budget s =
    let regs = List.rev s.queue in
    s.queue <- [];
    match regs with
    | [] -> (
        match s.last_stats with
        | Some stats -> stats
        | None ->
            {
              Transient.iterations = 0;
              converged_at = None;
              uniformisation_rate = s.rate;
              mass_residual = 0.;
              fg_defect = 0.;
              touched_nnz = 0;
              active_rows = 0;
              support_lo = 0;
              support_hi = 0;
              skipped_mass = 0.;
            })
    | regs ->
        Telemetry.incr c_flushes;
        Telemetry.with_span "session.flush" @@ fun () ->
        let grid =
          List.concat_map (fun r -> Array.to_list r.reg_times) regs
          |> List.sort_uniq Float.compare
          |> Array.of_list
        in
        let time_index = Hashtbl.create (Array.length grid) in
        Array.iteri (fun i t -> Hashtbl.replace time_index t i) grid;
        (* Equal functionals share one series: [slots] maps each
           registration's functionals to their series. *)
        let series_of = Hashtbl.create 32 and distinct = ref [] in
        let slots =
          List.map
            (fun r ->
              Array.map
                (fun m ->
                  match Hashtbl.find_opt series_of m with
                  | Some j -> j
                  | None ->
                      let j = Hashtbl.length series_of in
                      Hashtbl.add series_of m j;
                      distinct := m :: !distinct;
                      j)
                r.funcs)
            regs
        in
        let measures = Array.of_list (List.rev !distinct) in
        let windows = Array.map (window s) grid in
        let buffers = scratch s in
        let opts =
          match budget with
          | None -> s.opts
          | Some b -> { s.opts with Solver_opts.budget = Some b }
        in
        let series, stats =
          Transient.multi_measure_series ~opts ~buffers ~kernel:(kernel s)
            s.d.generator ~alpha:s.d.alpha ~times:grid ~windows ~measures
        in
        (* Fold only the (functional, time) pairs each registration
           asked for, not the whole functionals-by-grid product. *)
        List.iter2
          (fun r slots ->
            r.out <-
              Array.map
                (fun j ->
                  Array.map
                    (fun t ->
                      let w = windows.(Hashtbl.find time_index t) in
                      Poisson.expect w series.(j))
                    r.reg_times)
                slots;
            r.filled <- true)
          regs slots;
        s.last_stats <- Some stats;
        s.swept <- s.swept + 1;
        stats

  (* [ctx]: trace context (request id) for this flush.  Spans and Diag
     notes recorded during the sweep — kernel builds, escalations,
     budget trips — are stamped with it, so the service layer can
     attribute shared-sweep work to the requests that triggered it. *)
  let run ?budget ?ctx s =
    match ctx with
    | Some rid ->
        Telemetry.with_context rid @@ fun () ->
        Diag.with_context rid @@ fun () -> flush ?budget s
    | None -> flush ?budget s

  let get p =
    if not p.reg.filled then ignore (run p.s : Transient.stats);
    p.finish p.reg.out

  (* --- queries ------------------------------------------------------ *)

  let measure s ~times ~measure =
    register s ~times ~funcs:[| measure |] (fun out -> out.(0))

  let empty_probability s ~times =
    measure s ~times ~measure:(absorbed_mass s.d.grid)

  (* Every functional below is built from the grid's shape.  The flat
     layout is j1-major with the workload state fastest, so the
     [levels2 x K] states of charge level j1 form the contiguous slab
     [\[j1 slab, (j1 + 1) slab)], and workload state m recurs with
     stride K from index m. *)
  let slab grid = grid.Grid.levels2 * grid.Grid.n_workload

  let available_charge_marginal s ~time =
    let grid = s.d.grid in
    let slab = slab grid in
    let funcs =
      Array.init grid.Grid.levels1 (fun j1 ->
          Transient.Sum { lo = j1 * slab; hi = (j1 + 1) * slab; stride = 1 })
    in
    register s ~times:[| time |] ~funcs (fun out ->
        Array.mapi (fun j1 per_time -> (level_charge grid j1, per_time.(0))) out)

  let mode_marginal s ~time =
    let n = n_states s.d and k = s.d.grid.Grid.n_workload in
    let funcs =
      Array.init k (fun mode -> Transient.Sum { lo = mode; hi = n; stride = k })
    in
    register s ~times:[| time |] ~funcs (fun out ->
        Array.map (fun per_time -> per_time.(0)) out)

  let expected_available_charge s ~time =
    let grid = s.d.grid in
    let weights = Array.init grid.Grid.levels1 (level_charge grid) in
    let func = Transient.Weighted { slab = slab grid; weights } in
    register s ~times:[| time |] ~funcs:[| func |] (fun out -> out.(0).(0))

  (* [Grid.level_value] grows with j1, so the levels whose value
     reaches [min_charge] form a suffix [\[j1min, levels1)] of the
     non-empty levels.  The test stays [>=], so a NaN threshold
     selects nothing. *)
  let joint_probability s ~time ~mode ~min_charge =
    let grid = s.d.grid in
    check_mode grid mode;
    let rec first j1 =
      if j1 < grid.Grid.levels1
         && not (Grid.level_value grid (j1 - 1) >= min_charge)
      then first (j1 + 1)
      else j1
    in
    let n = n_states s.d in
    let lo = Int.min n ((first 1 * slab grid) + mode) in
    let func = Transient.Sum { lo; hi = n; stride = grid.Grid.n_workload } in
    register s ~times:[| time |] ~funcs:[| func |] (fun out -> out.(0).(0))
end

