/**
 * @file
 * A one-slot memo: the value built last, handed out again while its key
 * is asked for.
 */

#ifndef STONNE_COMMON_LAST_MEMO_HPP
#define STONNE_COMMON_LAST_MEMO_HPP

#include <memory>
#include <mutex>

namespace stonne {

/**
 * Keeps the most recently built value with its key. A hit returns a copy
 * of the kept value; a miss frees the kept value before the new one is
 * built, so the slot never holds two. Values with copy-on-write storage
 * (models of Tensors) make a hit cost no memory beyond the copy its
 * caller holds anyway. Safe to call from several threads: two misses on
 * one key both build, and the last to finish is kept.
 */
template <class Key, class Value>
class LastMemo
{
  public:
    /** The value of `key`: a copy of the kept one, or `build()`. */
    template <class Build>
    Value
    get(const Key &key, Build &&build)
    {
        std::shared_ptr<const Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (last_ && last_->key == key)
                entry = last_;
            else
                last_.reset(); // free it before the new value is built
        }
        if (!entry) {
            entry = std::make_shared<const Entry>(Entry{key, build()});
            std::lock_guard<std::mutex> lock(mutex_);
            last_ = entry;
        }
        return entry->value;
    }

  private:
    struct Entry {
        Key key;
        Value value;
    };
    std::mutex mutex_;
    std::shared_ptr<const Entry> last_;
};

} // namespace stonne

#endif // STONNE_COMMON_LAST_MEMO_HPP
