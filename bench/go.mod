module fgcs/bench

go 1.22

require fgcs v0.0.0

replace fgcs => ../
