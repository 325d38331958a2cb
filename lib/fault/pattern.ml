module Packvec = Mutsamp_util.Packvec
module Netlist = Mutsamp_netlist.Netlist

type t = Packvec.t

let num_inputs nl = Array.length nl.Netlist.input_nets

let zero ~inputs = Packvec.create inputs
let init ~inputs f = Packvec.init inputs f
let of_code ~inputs code = Packvec.of_code ~width:inputs code
let width = Packvec.width
let get = Packvec.get
let set = Packvec.set
let equal = Packvec.equal
let random prng ~inputs = Packvec.random prng inputs
let to_string = Packvec.to_string
let pp = Packvec.pp
