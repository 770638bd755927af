package pool_test

import (
	"pooldcs/internal/pool"
	"pooldcs/internal/pooltest"
)

// pooltest imports pool, so pool's own tests reach its reference through
// this external test file, which runs before any test does.
func init() { pool.CheckReplicaPairs = pooltest.CheckReplicaPairs }
