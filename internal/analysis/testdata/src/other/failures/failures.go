// Package failures holds the same failure-path offences as the dfpos
// fixture but lives outside the deterministic package set: the detfail
// rule must stay silent (CLIs may os.Exit and log freely).
package failures

import (
	"fmt"
	"log"
	"os"
)

func exits() {
	log.Printf("going down")
	panic(fmt.Sprintf("unless %d", recoverCode()))
}

func recoverCode() int {
	os.Exit(3)
	return 0
}
