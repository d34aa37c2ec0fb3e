module xpath2sql/benchmark

go 1.22

require xpath2sql v0.0.0

replace xpath2sql => ../
