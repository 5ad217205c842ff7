package main

import (
	"fmt"
	"math/rand"

	"perflow"
)

// serveRequest builds the i-th generated serve-mix request (i >= 0): a
// small DSL program from one of three families (halo exchange, allreduce
// loop, pipeline) at 4 to 16 ranks. Every program embeds i in its name, so
// distinct indices have distinct content addresses. About one request in
// five also sets ranks2 and a policy, so the differential and policy
// layers run.
func serveRequest(rng *rand.Rand, i int) perflow.AnalysisRequest {
	ranks := 4 + rng.Intn(13)
	var src string
	switch rng.Intn(3) {
	case 0:
		src = haloProgram(i, 4+rng.Intn(9), 8+rng.Intn(25), 256<<rng.Intn(6))
	case 1:
		src = allreduceProgram(i, 8+rng.Intn(25), 8<<rng.Intn(8))
	default:
		src = pipelineProgram(i, 2+rng.Intn(5), 1024<<rng.Intn(8))
	}
	req := perflow.AnalysisRequest{DSL: src, Ranks: ranks, Analysis: "profile"}
	if rng.Intn(5) == 0 {
		req.Ranks2 = 2 * ranks
		req.Policies = []string{"efficiency >= 0.5\nwarn: wait_pct < 60"}
	} else if rng.Intn(2) == 0 {
		req.Analysis = "comm"
	}
	return req
}

func haloProgram(i, steps, rows, bytes int) string {
	return fmt.Sprintf(`program halo_%d
func main file halo.c line 1
  compute init line 2 cost %d/P
  loop steps line 3 trips %d comm-per-iter
    call stencil line 4
    mpi allreduce line 5 bytes 8
  end
end
func stencil file stencil.c line 1
  loop rows line 2 trips %d factor 0:2.0
    compute update line 3 cost %d.5/P
  end
  mpi isend line 4 to halo2d arg 0 bytes %d tag 1 req e
  mpi irecv line 5 to halo2d arg 1 bytes %d tag 1 req w
  mpi isend line 6 to halo2d arg 2 bytes %d tag 2 req n
  mpi irecv line 7 to halo2d arg 3 bytes %d tag 2 req s
  mpi waitall line 8
end
`, i, 100+i%1000, steps, rows, 1+i%7, bytes, bytes, bytes, bytes)
}

func allreduceProgram(i, trips, bytes int) string {
	return fmt.Sprintf(`program allreduce_%d
func main file solver.c line 1
  loop iters line 2 trips %d comm-per-iter
    compute work line 3 cost %d add 0:%d
    mpi allreduce line 4 bytes %d
  end
end
`, i, trips, 10+i%1000, 5+i%11, bytes)
}

func pipelineProgram(i, sweeps, bytes int) string {
	return fmt.Sprintf(`program pipeline_%d
func main file pipe.c line 1
  loop sweeps line 2 trips %d comm-per-iter
    compute stage line 3 cost %d/P add 0:%d
    mpi sendrecv line 4 to right bytes %d tag 1
    mpi barrier line 5
  end
end
`, i, sweeps, 40+i%1000, 20+i%13, bytes)
}
