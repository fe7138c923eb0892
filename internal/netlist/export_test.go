package netlist

// RandomNetwork exposes randomNetwork to the external test package.
var RandomNetwork = randomNetwork
