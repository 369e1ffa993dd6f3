module bigdansing/benchmark

go 1.24

require bigdansing v0.0.0

replace bigdansing => ../
