module dfdbm/benchmark

go 1.22

require dfdbm v0.0.0

replace dfdbm => ../
