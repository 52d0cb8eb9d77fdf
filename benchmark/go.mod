module plumber/benchmark

go 1.22

require plumber v0.0.0

replace plumber => ../
