// Command bench uses package a from a second module.
package main

import (
	"fmt"

	"fixture/a"
)

func main() { fmt.Println(a.ForBench()) }
