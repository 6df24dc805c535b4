module ceci/benchmark

go 1.24

require ceci v0.0.0

replace ceci => ../
