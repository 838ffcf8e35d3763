GO ?= go

.PHONY: build test race lint

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
