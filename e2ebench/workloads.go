package main

// workload is one benchmark configuration. The why of each lives in
// BENCHMARK.json.
type workload struct {
	Name      string
	Kind      string // "a": core.Worker processes; "h": one core.HybridGroup process
	Workers   int    // worker processes (SMB ranks)
	Members   int    // h: goroutine members of the nccl group
	Transport string // what the workers dial
	Want      string // what the run must negotiate, for workers and shmserve alike
	ShmOffer  bool   // smbserver offers the shm transport
	Model     modelSpec
	Batch     int
	PerClass  int
	LR        float64
	// Serving: shmserve refreshes the trainer's Wg at its default interval
	// while the coordinator sends /infer at Rate per second in an open loop.
	Serve   bool
	Rate    float64
	LimitMS float64 // latency limit for infer_goodput_rps
}

var workloads = []workload{
	{
		Name: "a-tcp-wide", Kind: "a", Workers: 2, Transport: "tcp", Want: "tcp",
		Model: modelSpec{Kind: "mlp", Features: 1024, Hidden: 1600, Classes: 10},
		Batch: 2, PerClass: 32, LR: 0.01,
	},
	{
		Name: "h-shm-conv", Kind: "h", Workers: 1, Members: 2, Transport: "shm", Want: "shm", ShmOffer: true,
		Model: modelSpec{Kind: "cnn", Channels: 3, Size: 32, Classes: 10},
		Batch: 16, PerClass: 32, LR: 0.05,
	},
	{
		Name: "serve-storm", Kind: "a", Workers: 1, Transport: "auto", Want: "shm", ShmOffer: true,
		Model: modelSpec{Kind: "mlp", Features: 256, Hidden: 900, Classes: 10},
		Batch: 2, PerClass: 32, LR: 0.01,
		Serve: true, Rate: 100, LimitMS: 50,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
