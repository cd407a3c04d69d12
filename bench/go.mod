module dod/bench

go 1.22

require dod v0.0.0

replace dod => ../
