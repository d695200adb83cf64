module icc/bench

go 1.22

require icc v0.0.0

replace icc => ../
