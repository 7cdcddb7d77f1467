module github.com/datacron-project/datacron/bench

go 1.24

require github.com/datacron-project/datacron v0.0.0

replace github.com/datacron-project/datacron => ../
