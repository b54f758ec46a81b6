package serve_test

import (
	"context"
	"fmt"
	"log"
	"sync"

	"parbitonic"
	"parbitonic/internal/serve"
)

// ExampleServer_batchedSort shows the service front door: concurrent
// small Sort calls run on idle executors at once, or — when they queue
// behind busy ones — are transparently coalesced into one padded engine
// run, and each caller gets back exactly its own sorted keys.
func ExampleServer_batchedSort() {
	srv, err := serve.New(serve.Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		MaxBatch: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	inputs := [][]uint32{
		{5, 1, 4},
		{9, 8, 7, 6},
		{2, 3},
	}
	results := make([][]uint32, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in []uint32) {
			defer wg.Done()
			out, err := srv.Sort(context.Background(), in)
			if err != nil {
				log.Fatal(err)
			}
			results[i] = out
		}(i, in)
	}
	wg.Wait()
	fmt.Println(results[0], results[1], results[2])
	// Output: [1 4 5] [6 7 8 9] [2 3]
}

// ExamplePool shows direct engine pooling without the server: repeated
// same-shape sorts reuse one engine instead of rebuilding workers and
// exchange buffers per request.
func ExamplePool() {
	pool := serve.NewPool(2)
	cfg := parbitonic.Config{Processors: 2, Backend: parbitonic.Native}

	for i := 0; i < 3; i++ {
		eng, err := pool.Get(cfg, 8)
		if err != nil {
			log.Fatal(err)
		}
		keys := []uint32{4, 3, 2, 1, 8, 7, 6, 5}
		if _, err := eng.Sort(keys); err != nil {
			log.Fatal(err)
		}
		pool.Put(eng, 8, true)
		if i == 0 {
			fmt.Println(keys)
		}
	}
	st := pool.Stats()
	fmt.Printf("gets=%d hits=%d idle=%d\n", st.Gets, st.Hits, st.Idle)
	// Output:
	// [1 2 3 4 5 6 7 8]
	// gets=3 hits=2 idle=1
}
