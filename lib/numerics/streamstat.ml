(* Bounded streaming aggregates: log-bucketed histograms and rolling
   windows.  See the .mli for the quantile error-bound derivation; the
   invariants that matter here are that state is fixed at creation
   (O(buckets) / O(slots)) and that updates are safe from any domain. *)

module Hist = struct
  type t = {
    lo : float;
    ratio : float;  (* bucket bound ratio r = 10^(1/per_decade) *)
    log_lo : float;
    log_ratio : float;
    bounds : float array;  (* upper bounds, bounds.(0) = lo *)
    counts : int Atomic.t array;  (* length bounds + 1; overflow last *)
    sum : float Atomic.t;
    max : float Atomic.t;
  }

  let rec atomic_update cell f =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (f old)) then atomic_update cell f

  let create ?(lo = 1e-6) ?(hi = 1e3) ?(per_decade = 20) () =
    if not (0. < lo && lo < hi) then
      invalid_arg "Streamstat.Hist.create: need 0 < lo < hi";
    if per_decade < 1 then
      invalid_arg "Streamstat.Hist.create: need per_decade >= 1";
    let ratio = Float.pow 10. (1. /. float_of_int per_decade) in
    let n =
      (* Smallest n with lo * r^n >= hi, so bounds cover [lo, hi]. *)
      int_of_float (Float.ceil (Float.log10 (hi /. lo) *. float_of_int per_decade))
    in
    (* The last bound is hi itself: lo * r^n from Float.pow can round
       below it (999.99999999998488 at the default hi), which would
       send a sample at hi to the overflow bucket. *)
    let bounds =
      Array.init (n + 1) (fun i ->
          if i = n then hi else lo *. Float.pow ratio (float_of_int i))
    in
    {
      lo;
      ratio;
      log_lo = Float.log lo;
      log_ratio = Float.log ratio;
      bounds;
      counts = Array.init (n + 2) (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.0;
      max = Atomic.make neg_infinity;
    }

  let index t v =
    (* Bucket i covers (bounds.(i-1), bounds.(i)]; bucket 0 merges the
       underflow (0, lo].  Direct log computation keeps observe O(1)
       regardless of bucket count; ties on exact bound values are
       resolved by the explicit comparison below. *)
    if v <= t.lo then 0
    else
      let n = Array.length t.bounds in
      let i =
        int_of_float (Float.ceil ((Float.log v -. t.log_lo) /. t.log_ratio))
      in
      let i = if i < 0 then 0 else if i > n then n else i in
      (* Float.log rounding can land one bucket off near a bound. *)
      if i < n && v > t.bounds.(i) then i + 1
      else if i > 0 && v <= t.bounds.(i - 1) then i - 1
      else i

  let observe t v =
    if not (Float.is_nan v) then begin
      ignore (Atomic.fetch_and_add t.counts.(index t v) 1);
      atomic_update t.sum (fun s -> s +. v);
      atomic_update t.max (fun m -> Float.max m v)
    end

  let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts
  let sum t = Atomic.get t.sum
  let max_seen t = Atomic.get t.max
  let mean t = let n = count t in if n = 0 then nan else sum t /. float_of_int n
  let rel_error_bound t = Float.sqrt t.ratio -. 1.
  let buckets t = Array.length t.counts

  let quantile t p =
    let n = count t in
    if n = 0 then nan
    else begin
      let rank =
        (* The rank of sorting the samples and indexing
           floor(p * n), clamped to the last sample. *)
        let r = int_of_float (p *. float_of_int n) in
        if r < 0 then 0 else if r >= n then n - 1 else r
      in
      let nb = Array.length t.counts in
      let i = ref 0 and seen = ref 0 in
      while !seen + Atomic.get t.counts.(!i) <= rank && !i < nb - 1 do
        seen := !seen + Atomic.get t.counts.(!i);
        incr i
      done;
      let i = !i in
      if i = 0 then t.lo (* underflow-merged bucket: report its bound *)
      else if i = nb - 1 then Atomic.get t.max (* overflow: best effort *)
      else t.bounds.(i) /. Float.sqrt t.ratio (* geometric midpoint *)
    end

  let snapshot t =
    Array.mapi
      (fun i c ->
        let bound =
          if i < Array.length t.bounds then t.bounds.(i) else infinity
        in
        (bound, Atomic.get c))
      t.counts

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.counts;
    Atomic.set t.sum 0.0;
    Atomic.set t.max neg_infinity
end

module Window = struct
  type t = {
    span_s : float;
    slot_ns : int64;
    counts : int array;  (* ring, indexed by epoch mod slots *)
    epochs : int64 array;  (* absolute slot index each ring cell holds *)
    mutex : Mutex.t;
  }

  let create ?(slots = 12) ~span_s () =
    if not (span_s > 0.) then
      invalid_arg "Streamstat.Window.create: need span_s > 0";
    if slots < 1 then invalid_arg "Streamstat.Window.create: need slots >= 1";
    let slot_ns =
      Int64.of_float (Float.max 1. (span_s *. 1e9 /. float_of_int slots))
    in
    {
      span_s;
      slot_ns;
      counts = Array.make slots 0;
      epochs = Array.make slots Int64.min_int;
      mutex = Mutex.create ();
    }

  let now_default = function Some t -> t | None -> Monotonic_clock.now ()

  (* Callers hold the mutex.  A ring cell is live iff its epoch is
     within [slots] of the current one; anything older is retired
     lazily on first touch. *)
  let cell t epoch =
    let slots = Array.length t.counts in
    let i = Int64.to_int (Int64.rem epoch (Int64.of_int slots)) in
    let i = if i < 0 then i + slots else i in
    if t.epochs.(i) <> epoch then begin
      t.epochs.(i) <- epoch;
      t.counts.(i) <- 0
    end;
    i

  let add ?now_ns t n =
    let now = now_default now_ns in
    Mutex.lock t.mutex;
    let i = cell t (Int64.div now t.slot_ns) in
    t.counts.(i) <- t.counts.(i) + n;
    Mutex.unlock t.mutex

  let total ?now_ns t =
    let now = now_default now_ns in
    let slots = Array.length t.counts in
    let epoch = Int64.div now t.slot_ns in
    let oldest = Int64.sub epoch (Int64.of_int (slots - 1)) in
    Mutex.lock t.mutex;
    let acc = ref 0 in
    for i = 0 to slots - 1 do
      if t.epochs.(i) >= oldest && t.epochs.(i) <= epoch then
        acc := !acc + t.counts.(i)
    done;
    Mutex.unlock t.mutex;
    !acc

  let rate ?now_ns t = float_of_int (total ?now_ns t) /. t.span_s
  let span_s t = t.span_s
  let slots t = Array.length t.counts
end
