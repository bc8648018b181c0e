module scaledl/benchmark

go 1.24

require scaledl v0.0.0

replace scaledl => ../
