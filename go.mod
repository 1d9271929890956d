module cosm

go 1.24
