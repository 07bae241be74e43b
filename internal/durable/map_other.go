//go:build !unix

package durable

import (
	"errors"
	"os"
)

func mmap(*os.File, int) ([]byte, func(), error) {
	return nil, nil, errors.New("durable: mmap unsupported on this platform")
}
