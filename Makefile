GO ?= go

.PHONY: build test race lint bench bench-compare bench-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: formatting, stock vet, then the crystalvet suite
# (determinism, hot-path allocation and fingerprint-maintenance passes —
# see internal/analysis). The vettool build is cached by the ordinary go
# build cache, so repeat runs are fast.
lint:
	@fmtout=$$(gofmt -l cmd internal examples); \
	if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/crystalvet ./...

race:
	$(GO) test -race ./internal/mc ./internal/controller ./internal/scenario/... ./internal/dist

# Re-record the "after" side of the committed benchmark artifact (run on a
# quiet machine; commits the new numbers).
bench:
	$(GO) run ./cmd/benchjson -label after -out BENCH_10.json

# Record the "before" side (run on the base revision before a perf change).
bench-baseline:
	$(GO) run ./cmd/benchjson -label before -out BENCH_10.json

# Warn-only comparison of the working tree against the committed "after"
# snapshot; pass STRICT=1 to fail on regression.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_10.json $(if $(STRICT),-strict,)
