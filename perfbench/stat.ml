(* Order statistics.  Percentiles are exact nearest-rank values of the
   samples, never histogram bucket bounds. *)

(* Nearest-rank [p]-th percentile of [a] (not modified); [zero] when
   empty. *)
let percentile ~zero a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then zero
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let percentile_int a p = percentile ~zero:0 a p

let mean_int a =
  if Array.length a = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

type summary = { p10 : float; q1 : float; median : float; q3 : float; n : int }

let summarize (xs : float list) =
  let a = Array.of_list xs in
  let p = percentile ~zero:0. a in
  { p10 = p 10.; q1 = p 25.; median = p 50.; q3 = p 75.; n = Array.length a }

let median xs = (summarize xs).median
