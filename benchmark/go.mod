// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never builds or runs it. The module path
// sits under xmtgo/ so that Go's internal-package rule lets it import
// xmtgo/internal/...; the replace directive points at the checkout it sits in.
module xmtgo/benchmark

go 1.22

require xmtgo v0.0.0

replace xmtgo => ../
