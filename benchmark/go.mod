// The benchmark is a module of its own so it builds with its own build
// file; the replace directive lets it import react/internal/... (Go
// checks internal visibility by import path, and this path sits under
// react/).
module react/benchmark

go 1.22

require react v0.0.0

replace react => ../
