open Batlife_numerics

type t = {
  alpha : float array;
  sub : Dense.t;  (** sub-generator over transient states *)
  chain : Generator.t;  (** full chain with one absorbing state appended *)
  absorbing : int;
}

let build_chain alpha sub =
  let n = Array.length alpha in
  if n = 0 then invalid_arg "Phase_type.create: empty phase set";
  if Dense.rows sub <> n || Dense.cols sub <> n then
    invalid_arg "Phase_type.create: sub-generator shape mismatch";
  let mass = Array.fold_left ( +. ) 0. alpha in
  if mass > 1. +. 1e-9 then
    invalid_arg "Phase_type.create: initial mass exceeds 1";
  Array.iter
    (fun p -> if p < 0. then invalid_arg "Phase_type.create: negative alpha")
    alpha;
  let rates = ref [] in
  for i = 0 to n - 1 do
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      let v = Dense.get sub i j in
      if i <> j then begin
        if v < -1e-12 then
          invalid_arg "Phase_type.create: negative off-diagonal rate";
        if v > 0. then rates := (i, j, v) :: !rates;
        row_sum := !row_sum +. v
      end
      else row_sum := !row_sum +. v
    done;
    let absorption = -. !row_sum in
    if absorption < -1e-9 then
      invalid_arg "Phase_type.create: positive row sum in sub-generator";
    if absorption > 0. then rates := (i, n, absorption) :: !rates
  done;
  Generator.of_rates ~n:(n + 1) !rates

let create ~alpha ~sub_generator =
  let sub = Dense.of_arrays sub_generator in
  let alpha = Array.copy alpha in
  let chain = build_chain alpha sub in
  { alpha; sub; chain; absorbing = Array.length alpha }

let of_absorbing_ctmc g ~alpha =
  let n = Generator.n_states g in
  if Array.length alpha <> n then
    invalid_arg "Phase_type.of_absorbing_ctmc: alpha length";
  let absorbing = Generator.absorbing_states g in
  if absorbing = [] then
    invalid_arg "Phase_type.of_absorbing_ctmc: chain has no absorbing state";
  let is_abs = Array.make n false in
  List.iter (fun i -> is_abs.(i) <- true) absorbing;
  let transient =
    List.filter (fun i -> not is_abs.(i)) (List.init n (fun i -> i))
  in
  let index_of = Hashtbl.create 16 in
  List.iteri (fun pos i -> Hashtbl.add index_of i pos) transient;
  let m = List.length transient in
  if m = 0 then invalid_arg "Phase_type.of_absorbing_ctmc: no transient state";
  let sub = Dense.create ~rows:m ~cols:m in
  List.iteri
    (fun pos i ->
      List.iter
        (fun j ->
          match Hashtbl.find_opt index_of j with
          | Some pos_j -> Dense.set sub pos pos_j (Generator.rate g i j)
          | None -> ())
        (List.init n (fun j -> j));
      Dense.set sub pos pos (Generator.rate g i i))
    transient;
  let alpha_t = Array.of_list (List.map (fun i -> alpha.(i)) transient) in
  let chain = build_chain alpha_t sub in
  { alpha = alpha_t; sub; chain; absorbing = m }

let erlang ~k ~rate =
  if k < 1 then invalid_arg "Phase_type.erlang: need k >= 1";
  if rate <= 0. then invalid_arg "Phase_type.erlang: need positive rate";
  let sub =
    Array.init k (fun i ->
        Array.init k (fun j ->
            if i = j then -.rate
            else if j = i + 1 then rate
            else 0.))
  in
  let alpha = Array.init k (fun i -> if i = 0 then 1. else 0.) in
  create ~alpha ~sub_generator:sub

let exponential ~rate = erlang ~k:1 ~rate

let hypoexponential ~rates =
  let k = Array.length rates in
  if k = 0 then invalid_arg "Phase_type.hypoexponential: no phases";
  Array.iter
    (fun r ->
      if r <= 0. then invalid_arg "Phase_type.hypoexponential: rate <= 0")
    rates;
  let sub =
    Array.init k (fun i ->
        Array.init k (fun j ->
            if i = j then -.rates.(i)
            else if j = i + 1 then rates.(i)
            else 0.))
  in
  let alpha = Array.init k (fun i -> if i = 0 then 1. else 0.) in
  create ~alpha ~sub_generator:sub

let n_phases d = Array.length d.alpha

let full_alpha d =
  let n = n_phases d in
  let a = Array.make (n + 1) 0. in
  Array.blit d.alpha 0 a 0 n;
  a.(n) <- 1. -. Array.fold_left ( +. ) 0. d.alpha;
  if a.(n) < 0. then a.(n) <- 0.;
  a

let cdf ?accuracy d t =
  if t < 0. then 0.
  else
    let pi =
      Transient.solve
        ~opts:(Solver_opts.make ?accuracy ())
        d.chain ~alpha:(full_alpha d) ~t
    in
    pi.(d.absorbing)

let cdf_many ?accuracy d times =
  let results, _ =
    Transient.measure_sweep
      ~opts:(Solver_opts.make ?accuracy ())
      d.chain ~alpha:(full_alpha d)
      ~times:(Array.map (fun t -> Float.max t 0.) times)
      ~measure:
        (Transient.Sum { lo = d.absorbing; hi = d.absorbing + 1; stride = 1 })
  in
  Array.mapi (fun i r -> if times.(i) < 0. then 0. else r) results

let survival ?accuracy d t = 1. -. cdf ?accuracy d t

(* E[T^m] = (-1)^m m! alpha A^{-m} 1; compute x_1 = A^{-1} 1, then
   x_{j+1} = A^{-1} x_j. *)
let moment d m =
  if m < 1 then invalid_arg "Phase_type.moment: need m >= 1";
  let n = n_phases d in
  let ones = Array.make n 1. in
  let x = ref ones in
  for _ = 1 to m do
    x := Dense.lu_solve d.sub !x
  done;
  let sign = if m mod 2 = 0 then 1. else -1. in
  let fact = ref 1. in
  for j = 2 to m do
    fact := !fact *. float_of_int j
  done;
  sign *. !fact *. Vector.dot d.alpha !x

let mean d = moment d 1

let variance d =
  let m1 = moment d 1 in
  moment d 2 -. (m1 *. m1)

let erlang_cdf ~k ~rate t =
  if t <= 0. then 0.
  else begin
    (* P(Erlang_k <= t) = 1 - sum_{j<k} pois(rate*t; j). *)
    let lambda = rate *. t in
    let acc = ref 0. in
    for j = 0 to k - 1 do
      acc := !acc +. Special.poisson_pmf ~lambda j
    done;
    1. -. !acc
  end
