module github.com/rdt-go/rdt/bench

go 1.22

require github.com/rdt-go/rdt v0.0.0

replace github.com/rdt-go/rdt => ../
