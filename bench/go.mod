module adrdedup/bench

go 1.22

require adrdedup v0.0.0

replace adrdedup => ../
