module skueue/bench

go 1.24

require skueue v0.0.0

replace skueue => ../
