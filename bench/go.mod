module pooldcs/bench

go 1.22

require pooldcs v0.0.0

replace pooldcs => ../
